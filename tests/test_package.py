"""Tests for the package surface: its exports, and no trace of removed code."""

from pathlib import Path

import verlinde_lab
from verlinde_lab import fusion

#: Names of the level-k fusion ring that ``fusion`` no longer has.  Each is
#: split in two so that a text search of the tree for them finds none here.
REMOVED_NAMES = (
    "Fusion" "Element",
    "fusion" "_product",
    "clebsch" "_gordan",
    "basis" "_element",
    "chebyshev" "_",
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
