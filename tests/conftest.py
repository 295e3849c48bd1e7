import pytest

from k4verma import solver as sv


@pytest.fixture
def fresh_solver_caches():
    """Empty every memo table of the solver, each lru_cache defined in
    k4verma.solver, before and after the test: a test that patches what
    they read through (dual_lambda_action, _dual_mu) or corrupts an entry
    fills them through the patch and leaves nothing behind for later
    tests.  Yields the caches it clears."""
    caches = [f for f in vars(sv).values() if hasattr(f, "cache_clear")
              and f.__module__ == sv.__name__]
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()
