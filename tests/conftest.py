import pytest

from regsel import convex


@pytest.fixture
def cold_factor_cache(monkeypatch):
    """An empty AffineSet factorization cache for one test, so a count of
    SVDs does not depend on which tests ran before it in the process."""
    cache = convex.FactorCache()
    monkeypatch.setattr(convex, "_factor_cache", cache)
    return cache
