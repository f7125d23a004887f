"""Fixtures shared by the test modules."""

import sys

import pytest

from verlinde_lab import fusion


@pytest.fixture
def fresh_verlinde_cache():
    """Empty the per-genus Verlinde polynomial cache before and after the test,
    so a test starts cold and no polynomial it builds reaches a later test."""
    fusion.verlinde_polynomial.cache_clear()
    yield
    fusion.verlinde_polynomial.cache_clear()


@pytest.fixture
def frames_left():
    """A probe of how many nested frames the calling test's callees can still call.

    It nests that many calls, since the C calls between Python frames count
    against ``sys.getrecursionlimit()`` on some Python versions, unseen by
    the frame stack.
    """

    def nest(n: int) -> bool:
        return n <= 1 or nest(n - 1)

    def fits(frames: int) -> bool:
        try:
            return nest(frames - 1)
        except RecursionError:
            return False

    def probe() -> int:
        lo, hi = 1, sys.getrecursionlimit()
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid - 1)
        return lo

    return probe
