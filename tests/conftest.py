import pytest

from regsel import convex


@pytest.fixture
def cold_factor_cache():
    """An empty AffineSet factorization cache for one test, so a count of
    SVDs does not depend on which tests ran before it in the process."""
    convex._cached_factors.cache_clear()
    yield convex._cached_factors
    convex._cached_factors.cache_clear()
