import pytest

from k4verma import solver as sv


@pytest.fixture
def fresh_solver_caches():
    """Empty the solver's memo tables before and after the test: a test
    that patches what they read through (dual_lambda_action, _dual_mu) or
    corrupts an entry fills them through the patch and leaves nothing
    behind for later tests."""
    caches = (sv._hw_basis, sv._dual_mu, sv._dual_record)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
