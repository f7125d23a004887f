"""Fixtures shared by the test modules."""

import pytest

from verlinde_lab import fusion


@pytest.fixture
def fresh_verlinde_cache():
    """Empty the per-genus Verlinde polynomial cache before and after the test,
    so a test starts cold and no polynomial it builds reaches a later test."""
    fusion.verlinde_polynomial.cache_clear()
    yield
    fusion.verlinde_polynomial.cache_clear()
