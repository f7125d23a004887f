"""Every route refuses work past its budget with the one BudgetExceeded."""

import pytest

from verlinde_lab import abelian, polytope, weights
from verlinde_lab.budget import BudgetExceeded
from verlinde_lab.graph import generate_genus_graphs


def _refusals():
    genus3, genus4 = generate_genus_graphs(3)[0], generate_genus_graphs(4)[0]
    past_a_million = abelian.AffineMultisection(
        2, (abelian.MultisectionComponent(((1001, 0), (0, 1000)), (0, 0)),)
    )
    return {
        "brute-states": (
            lambda: weights.count_admissible_bruteforce(genus3, 8, max_states=100),
            "(k+1)^E = 531441 exceeds the 100 state budget; "
            "use count_via_contraction instead",
        ),
        "contraction-frontier": (
            lambda: weights.count_via_contraction(genus4, 24, max_frontier=1000),
            "frontier of 3 open edges needs even-parity blocks of "
            "((k+1)^3 + 1^3)/2 = 7813 cells; budget is 1000",
        ),
        "abelian-points": (
            lambda: abelian.bs_points(abelian.TorusFibration(4, 100)),
            "k^g = 100000000 labels exceed the budget of 1000000; "
            "use bs_count for the count alone",
        ),
        "abelian-fibres": (
            lambda: abelian.e_bs_fibres(past_a_million),
            "1001000 fibres exceed the budget of 1000000",
        ),
        "exact-volume-dimension": (
            lambda: polytope.exact_volume(polytope.build_polytope(genus4)),
            "exact_volume supports dimension <= 6 (got 9); use mc_volume",
        ),
    }


@pytest.mark.parametrize("route", list(_refusals()))
def test_every_route_raises_the_one_refusal_with_its_own_message(route):
    call, message = _refusals()[route]
    with pytest.raises(BudgetExceeded) as info:
        call()
    assert type(info.value) is BudgetExceeded
    assert str(info.value) == message
    # A refusal is not an input error: callers tell the two apart.
    assert not isinstance(info.value, ValueError)
