import pytest
from hypothesis import settings

from regsel import convex

# One verdict per commit: by default every run draws the same examples and
# reads no stored failures. ``--hypothesis-profile=search`` draws at random
# instead (and replays what .hypothesis/ keeps), to look for new failures.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("search", derandomize=False)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("derandomized")


@pytest.fixture
def cold_factor_cache():
    """An empty AffineSet factorization cache for one test, so a count of
    SVDs does not depend on which tests ran before it in the process."""
    convex._cached_factors.cache_clear()
    yield convex._cached_factors
    convex._cached_factors.cache_clear()
