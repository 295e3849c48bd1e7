"""The Grassmann algebra on four odd generators, as bitmask tables.

A monomial xi_I (eta_I on module side, same combinatorics) is indexed by a
subset I of {1,2,3,4} stored as a 4-bit mask, bit i-1 <-> index i.  The
canonical form of a word is the strictly increasing one; `normalize` returns
the inversion-count sign taking a word to canonical form, or sign 0 for a
repeated index.

Sign conventions used throughout the package:

* partial_i xi_I = (-1)^(j-1) xi_{I minus i} when i is the j-th smallest
  element of I, and 0 when i is not in I;
* a composite derivative partial_{i1...ik} applies the RIGHTMOST index first
  (operator composition), so partial_{1234} eta_{1234} = +1;
* star(A, B) concatenates A then B: xi_A * xi_B = normalize(A||B) xi_{AB},
  zero when A and B intersect;
* eps(I) is the sign of the permutation (I, complement(I)) of (1,2,3,4),
  both halves increasing;
* hodge(eta_I) is the unique +-eta_{I^c} with hodge(eta_I) * xi_I = eta_1234,
  which works out to normalize(I^c || I) eta_{I^c}.
"""

from __future__ import annotations

from typing import Iterable, Sequence

INDICES = (1, 2, 3, 4)
MASK_ALL = 0b1111


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        if i < 1 or i > 4:
            raise ValueError(f"index {i} out of range 1..4")
        m |= 1 << (i - 1)
    return m


# the increasing index word of each mask
_WORDS = tuple(tuple(i for i in INDICES if m & (1 << (i - 1)))
               for m in range(16))


def indices_of(mask: int) -> tuple[int, ...]:
    return _WORDS[mask]


def size(mask: int) -> int:
    return mask.bit_count()


def complement(mask: int) -> int:
    return MASK_ALL & ~mask


def normalize(word: Sequence[int]) -> tuple[int, int]:
    """(sign, mask) of an arbitrary index word; sign 0 iff an index repeats."""
    seen = 0
    inv = 0
    for pos, i in enumerate(word):
        bit = 1 << (i - 1)
        if seen & bit:
            return 0, 0
        inv += sum(1 for j in word[:pos] if j > i)
        seen |= bit
    return (-1) ** inv, seen


def derive(i: int, mask: int) -> tuple[int, int]:
    """partial_i applied to the monomial with this mask."""
    bit = 1 << (i - 1)
    if not mask & bit:
        return 0, 0
    j = size(mask & (bit - 1))  # elements smaller than i
    return (-1) ** j, mask & ~bit


def derive_seq(word: Sequence[int], mask: int) -> tuple[int, int]:
    """Composite derivative, rightmost index applied first."""
    sign = 1
    for i in reversed(word):
        s, mask = DERIVE[i][mask]
        if not s:
            return 0, 0
        sign *= s
    return sign, mask


def star(amask: int, bmask: int) -> tuple[int, int]:
    """Product in concatenation order: (monomial A) wedge (monomial B)."""
    if amask & bmask:
        return 0, 0
    sign, mask = normalize(indices_of(amask) + indices_of(bmask))
    return sign, mask


def eps(mask: int) -> int:
    sign, _ = normalize(indices_of(mask) + indices_of(complement(mask)))
    return sign


def hodge(mask: int) -> tuple[int, int]:
    """(sign, complement mask) with sign chosen so hodge(eta_I) * xi_I = eta_1234."""
    sign, _ = normalize(indices_of(complement(mask)) + indices_of(mask))
    return sign, complement(mask)


# precomputed tables; the module is imported once, everything downstream
# indexes these instead of recomputing signs
EPS = tuple(eps(m) for m in range(16))
HODGE = tuple(hodge(m) for m in range(16))
STAR = tuple(tuple(star(a, b) for b in range(16)) for a in range(16))
DERIVE = ((),) + tuple(tuple(derive(i, m) for m in range(16)) for i in (1, 2, 3, 4))
# PARTIAL[a][m]: partial_{i1...ik}, over the increasing word of mask a,
# applied to the monomial with mask m
PARTIAL = tuple(tuple(derive_seq(indices_of(a), m) for m in range(16))
                for a in range(16))

ALL_MASKS = tuple(range(16))
