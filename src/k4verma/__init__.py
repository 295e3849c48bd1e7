"""Exact symbolic engine for the N=4 superconformal algebra K'_4, its
annihilation superalgebra, generalized Verma modules, singular vectors and
the resulting complexes of Verma morphisms."""

__version__ = "0.1.0"

from .exact import ExactScalar, scal, ZERO, ONE, I  # noqa: F401
