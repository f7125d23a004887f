"""Exact arithmetic for ranks of SU(2) conformal-block spaces.

The package computes the same integer -- the rank of the level-k space of
non-abelian theta functions on a genus-g surface -- by three independent
routes and cross-validates them:

* ``fusion``:   the Verlinde formula, exact as a polynomial in k+2;
* ``weights``:  admissible integer edge weights on trinion dual graphs;
* ``polytope``: lattice points of the Clebsch-Gordan moment polytope.

``graph`` supplies the trinion dual graphs themselves, ``abelian`` the
classical torus-fibration counts (theta characteristics and affine
multisection intersections), and ``cli`` a command-line front end.
"""

from verlinde_lab.fusion import verlinde_dim
from verlinde_lab.graph import (
    TrinionGraph,
    canonical_form,
    dumbbell_graph,
    fusion_move,
    generate_genus_graphs,
    theta_graph,
)
from verlinde_lab.weights import (
    bruteforce_counts,
    count_admissible_bruteforce,
    count_via_contraction,
    enumerate_admissible,
    is_admissible,
)
from verlinde_lab.polytope import (
    asymptotic_table,
    build_polytope,
    exact_volume,
    lattice_count,
    lattice_counts,
    mc_volume,
)
from verlinde_lab.abelian import (
    bs_points,
    e_bs_fibres,
    gft_intersection_count,
    translate_label,
)

__version__ = "0.1.0"

__all__ = [
    "TrinionGraph",
    "asymptotic_table",
    "bruteforce_counts",
    "bs_points",
    "build_polytope",
    "canonical_form",
    "count_admissible_bruteforce",
    "count_via_contraction",
    "dumbbell_graph",
    "e_bs_fibres",
    "enumerate_admissible",
    "exact_volume",
    "fusion_move",
    "generate_genus_graphs",
    "gft_intersection_count",
    "is_admissible",
    "lattice_count",
    "lattice_counts",
    "mc_volume",
    "theta_graph",
    "translate_label",
    "verlinde_dim",
]
