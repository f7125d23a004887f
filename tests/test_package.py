"""Tests for the package surface: its exports, and no trace of removed code."""

from pathlib import Path

import verlinde_lab
from verlinde_lab import fusion, polytope

#: Names of the level-k fusion ring that ``fusion`` no longer has.  Each is
#: split in two so that a text search of the tree for them finds none here.
REMOVED_NAMES = (
    "Fusion" "Element",
    "fusion" "_product",
    "clebsch" "_gordan",
    "basis" "_element",
    "chebyshev" "_",
)

#: Names of the generic-polytope surface that ``polytope`` no longer has,
#: split in two the same way.  Other modules keep a ``to_json_dict`` and a
#: ``from_json_dict``, so only the last is searched for as text.
REMOVED_POLYTOPE_NAMES = (
    "con" "tains",
    "to_json" "_dict",
    "from_json" "_dict",
    "_has" "_recession",
)

#: Re-derivations the growth-law check no longer needs, split in two the
#: same way: the monomial expansion of the Verlinde polynomial and the count
#: polynomial in that basis.
REMOVED_GROWTH_NAMES = (
    "mono" "mials",
    "count" "_polynomial",
)

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_sorted_unique_and_resolves():
    names = verlinde_lab.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(verlinde_lab, name) is not None, name


def test_removed_ring_names_appear_nowhere():
    for name in REMOVED_NAMES:
        assert not any(attr.startswith(name) for attr in dir(fusion)), name
        assert not any(attr.startswith(name) for attr in dir(verlinde_lab)), name
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            for name in REMOVED_NAMES:
                assert name not in text, f"{path.relative_to(ROOT)} names {name}"


def test_removed_polytope_names_appear_nowhere():
    for name in REMOVED_POLYTOPE_NAMES:
        assert not hasattr(polytope, name), name
    name = REMOVED_POLYTOPE_NAMES[-1]
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            assert name not in path.read_text(), f"{path.relative_to(ROOT)} names {name}"


def test_removed_growth_law_names_appear_nowhere():
    assert not hasattr(fusion.VerlindePolynomial, REMOVED_GROWTH_NAMES[0])
    assert REMOVED_GROWTH_NAMES[1] not in polytope.AsymptoticTable.__dataclass_fields__
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        for name in REMOVED_GROWTH_NAMES:
            assert name not in text, f"{path.relative_to(ROOT)} names {name}"
