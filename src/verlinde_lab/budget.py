"""The one refusal of every counting route whose work would pass its budget."""


class BudgetExceeded(RuntimeError):
    """Raised by a route before it does work that would pass its budget.

    Each route keeps its own rule and states it in the message: brute-force
    labelings ``(k+1)^E``, contraction tensor cells, abelian points, and
    ``exact_volume``'s dimension.
    """
