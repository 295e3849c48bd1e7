import importlib
import pkgutil

import pytest

import k4verma
from k4verma import conformal
from k4verma.grassmann import MASK_ALL

MODULES = [importlib.import_module(f"{k4verma.__name__}.{info.name}")
           for info in pkgutil.iter_modules(k4verma.__path__)]


@pytest.fixture
def fresh_solver_caches():
    """Empty every memo table of the package, each lru_cache defined in a
    k4verma module, before and after the test: a test that patches what
    they read through (dual_lambda_action, _dual_mu, _pairing) or corrupts
    an entry fills them through the patch and leaves nothing behind for
    later tests.  Yields the caches it clears."""
    caches = [f for mod in MODULES for f in vars(mod).values()
              if hasattr(f, "cache_clear") and f.__module__ == mod.__name__]
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def flipped_xi1_xi2(fresh_solver_caches, monkeypatch):
    """[xi_1 lambda xi_2], masks (1, 2), changes sign ahead of gen_bracket's
    memo, so every pd power of it and every bracket read through
    gen_bracket carries the flip."""
    base = conformal._base_bracket

    def flipped(imask, jmask):
        frozen = base(imask, jmask)
        if (imask, jmask) != (1, 2):
            return frozen
        return tuple((n, tuple((g, -c) for g, c in items))
                     for n, items in frozen)

    monkeypatch.setattr(conformal, "_base_bracket", flipped)


@pytest.fixture
def bare_xi1234_in_xi1_xi234(fresh_solver_caches, monkeypatch):
    """[xi_1 lambda xi_234], masks (1, 14), gains a bare xi_1234 term at
    lambda^0 ahead of gen_bracket's memo, so the bracket of every pd power
    of xi_1 with every pd power of xi_234 leaves K'_4."""
    base = conformal._base_bracket

    def bare(imask, jmask):
        frozen = base(imask, jmask)
        if (imask, jmask) != (1, 14):
            return frozen
        return tuple((n, items + (((0, MASK_ALL), 1),) if n == 0 else items)
                     for n, items in frozen)

    monkeypatch.setattr(conformal, "_base_bracket", bare)
