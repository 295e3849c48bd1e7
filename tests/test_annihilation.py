import re
from fractions import Fraction

import pytest

from k4verma import annihilation as an
from k4verma import cli
from k4verma import conformal as cf
from k4verma.exact import I, ONE, ZERO, axpy, scal
from k4verma.grassmann import MASK_ALL, STAR, complement, mask_of, size

C = {an.CKEY: scal(1)}


def tmono(tpow, indices):
    """The key t^tpow xi_{indices}, indices a tuple or a mask, as an element."""
    m = indices if isinstance(indices, int) else mask_of(indices)
    return {(tpow, m): scal(1)}


def test_grading_element():
    # [t, x] = deg(x) x for homogeneous x
    t = tmono(1, ())
    for key in an.basis(3, with_central=False):
        out = an.bracket(t, {key: scal(1)})
        d = an.grade_key(key)
        assert out == ({key: scal(d)} if d else {})


def test_frozen_small_brackets():
    assert an.bracket(tmono(0, (1,)), tmono(0, (1,))) == {(0, 0): scal(-1)}
    assert an.bracket(tmono(0, (1,)), tmono(0, (2, 3, 4))) == {an.CKEY: scal(-1)}
    assert an.bracket(an.THETA, tmono(0, (1, 2, 3, 4))) == {an.CKEY: scal(1)}
    assert an.bracket(tmono(0, ()), tmono(0, (1, 2, 3, 4))) == {an.CKEY: scal(-2)}


def test_theta_lowers_t_power():
    for m in range(3):
        for mask in range(16):
            out = an.bracket(an.THETA, tmono(m + 1, mask))
            assert out == {(m, mask): scal(-(m + 1))}


def test_central_element_is_central():
    for key in an.basis(2):
        assert an.bracket(C, {key: scal(1)}) == {}
        assert an.bracket({key: scal(1)}, C) == {}


def test_grade():
    assert an.grade_key((0, 0)) == -2
    assert an.grade_key((1, 0)) == 0
    assert an.grade_key((0, mask_of((3,)))) == -1
    assert an.grade_key((0, MASK_ALL)) == 2
    assert an.grade_key(an.CKEY) == 0


def test_jacobi_small():
    rep = an.check_jacobi(max_tpow=1)
    assert rep.ok and rep.triples_checked == 32 ** 3


def test_cocycle_conditions_small():
    rep = an.check_cocycle(max_tpow=1)
    assert rep.ok


def _psi_rule(a, b):
    # the cocycle as stated in the module docstring, case by case
    if a == an.CKEY or b == an.CKEY:
        return ZERO
    (m, im), (n, jm) = a, b
    if m or n:
        return ZERO
    if im == 0 and jm == MASK_ALL:
        return scal(-2)
    if im == MASK_ALL and jm == 0:
        return scal(2)
    if size(im) == 1 and jm == complement(im):
        return scal((-1) ** im.bit_length())
    if size(jm) == 1 and im == complement(jm):
        return scal((-1) ** jm.bit_length())
    return ZERO


def test_psi_table_equals_the_rule():
    keys = an.basis(1)
    assert an.CKEY in keys
    for a in keys:
        for b in keys:
            assert an.psi_default(a, b) == _psi_rule(a, b), (a, b)


def test_corrupted_cocycle_detected():
    def corrupt(a, b):
        if a == (0, 0) and b == (0, MASK_ALL):
            return scal(-3)
        return an.psi_default(a, b)

    # the plain bracket does not read psi; the cocycle sweep, and so the
    # extension's Jacobi identity, fail
    jac = an.check_jacobi(max_tpow=1)
    assert jac.ok
    coc = an.check_cocycle(max_tpow=1, psi=corrupt)
    assert not coc.ok
    assert an.extension_failures(jac, coc)


# -- the split Jacobi sweeps against the bracket route they replaced ---------

def _jacobi_by_bracket(max_tpow, psi):
    """The extension's Jacobi failures as the sweep found them before the
    plain/central split: each key a one-entry dict, three full brackets,
    central term included, per triple."""
    keys = an.basis(max_tpow, with_central=False)
    singles = {k: {k: ONE} for k in keys}
    pair = {(x, y): an.bracket(singles[x], singles[y], psi)
            for x in keys for y in keys}
    failures = []
    for a in keys:
        for b in keys:
            sgn = scal((-1) ** (an.parity(a) * an.parity(b)))
            for c in keys:
                lhs = an.bracket(singles[a], pair[b, c], psi)
                rhs = an.bracket(pair[a, b], singles[c], psi)
                axpy(rhs, sgn, an.bracket(singles[b], pair[a, c], psi).items())
                axpy(lhs, scal(-1), rhs.items())
                if lhs:
                    failures.append((a, b, c))
    return failures


XI1 = (0, mask_of((1,)))


def _patch_plain_entry(monkeypatch, change):
    """[xi_1, xi_1] = -1 (the empty monomial) has its coefficient replaced
    by change(coefficient), for every reader of `_key_bracket_plain`."""
    plain = an._key_bracket_plain

    def patched(m, im, n, jm):
        items = plain(m, im, n, jm)
        if (m, im, n, jm) != (*XI1, *XI1):
            return items
        return tuple((k, change(c)) for k, c in items)

    monkeypatch.setattr(an, "_key_bracket_plain", patched)


@pytest.mark.parametrize("max_tpow", [0, 1])
@pytest.mark.parametrize("condition",
                         ["default", "corrupt-cocycle", "flipped-plain"])
def test_split_jacobi_matches_the_bracket_route(fresh_solver_caches,
                                                monkeypatch, condition,
                                                max_tpow):
    # referee: the plain Jacobi sweep joined with the cocycle sweep fails
    # exactly the triples, in the same order, that three brackets per
    # triple, central term included, fail
    psi = cli._corrupted_psi if condition == "corrupt-cocycle" \
        else an.psi_default
    if condition == "flipped-plain":
        _patch_plain_entry(monkeypatch, lambda c: -c)
    want = _jacobi_by_bracket(max_tpow, psi)
    assert bool(want) == (condition != "default")
    jac, coc = an.check_jacobi(max_tpow), an.check_cocycle(max_tpow, psi=psi)
    assert an.extension_failures(jac, coc) == want


@pytest.mark.parametrize("bad", [scal(Fraction(1, 2)), I])
def test_int_view_rejects_a_non_integer_entry(fresh_solver_caches,
                                              monkeypatch, bad):
    # an entry that is not a real integer is never truncated into the int
    # contraction: both sweeps raise, naming the key pair and the value
    _patch_plain_entry(monkeypatch, lambda c: bad)
    named = re.escape(f"[{XI1}, {XI1}]") + ".*" + re.escape(str(bad))
    for check in (an.check_jacobi, an.check_cocycle):
        with pytest.raises(ArithmeticError, match=named):
            check(0)


def test_a_flipped_star_sign_fails_both_jacobi_sweeps(fresh_solver_caches,
                                                      monkeypatch):
    # negative control for the int contractions: xi_1 xi_2 = -xi_12 in
    # the wedge table that both bracket formulas read, while xi_2 xi_1
    # keeps its sign, breaks the conformal and the annihilation Jacobi;
    # the annihilation sweep names (xi_1, xi_13, xi_23) among others
    star = [list(row) for row in STAR]
    sign, mask = star[1][2]
    star[1][2] = (-sign, mask)
    flipped = tuple(map(tuple, star))
    monkeypatch.setattr(cf, "STAR", flipped)
    monkeypatch.setattr(an, "STAR", flipped)
    xi = {i: (0, mask_of((i,))) for i in (1, 2)}
    conformal = cf.check_conformal_axioms(0).failures
    assert ("jacobi", xi[1], xi[1], xi[2]) in conformal
    assert ((0, 1), (0, 5), (0, 6)) in an.check_jacobi(0).failures


# -- the K'_4[y] presentation ------------------------------------------------

def test_phi_is_a_morphism_small():
    rep = an.check_quotient_morphism(2)
    assert rep.failures == []
    assert rep.pairs_checked == len(an.lie_basis(2)) ** 2


def test_phi_kernel_is_the_marked_generator():
    for key in an.lie_basis(3):
        img = an.phi({key: scal(1)})
        if key == an.KERNEL_KEY:
            assert img == {}
        else:
            assert img != {}


def test_kernel_generator_is_central():
    z = {an.KERNEL_KEY: scal(1)}
    for key in an.lie_basis(3):
        assert an.lie_bracket_K4({key: scal(1)}, z) == {}
        assert an.lie_bracket_K4(z, {key: scal(1)}) == {}


def test_section_splits_phi():
    for key in an.basis(3, with_central=False):
        x = {key: scal(1)}
        assert an.phi(an.section(x)) == x
    with pytest.raises(ValueError):
        an.section(C)


def test_cocycle_recovered_from_splitting():
    # dual route for the psi table: never collapse this into psi_default
    for im in range(16):
        for jm in range(16):
            a, b = (0, im), (0, jm)
            assert an.psi_from_splitting(a, b) == an.psi_default(a, b), (im, jm)
    for m, im, n, jm in [(1, 0, 0, MASK_ALL), (0, 3, 2, 12), (1, 1, 1, 14),
                         (2, 0, 0, 0), (1, 15, 0, 0)]:
        assert an.psi_from_splitting((m, im), (n, jm)) == an.psi_default((m, im), (n, jm))


def test_basis_of_degree():
    assert set(an.basis_of_degree(-2)) == {(0, 0)}
    assert set(an.basis_of_degree(-1)) == {(0, 1), (0, 2), (0, 4), (0, 8)}
    d0 = set(an.basis_of_degree(0))
    assert (1, 0) in d0 and len(d0) == 7  # t and the six xi_ij


def test_basis_of_degree_is_complete_at_high_degree():
    # degree d = 2m + |I| - 2 has 8 keys for every d >= 2; t^9 first shows
    # up at d = 16, past the t-power cap the basis used to have
    for d in range(2, 31):
        assert len(an.basis_of_degree(d)) == 8, d


def test_quotient_morphism_names_the_failing_pairs(monkeypatch):
    phi = an.phi
    xi1 = (0, mask_of((1,)))

    def bad_phi(a):
        return {k: c * scal(2) if k == xi1 else c for k, c in phi(a).items()}

    monkeypatch.setattr(an, "phi", bad_phi)
    rep = an.check_quotient_morphism(1)
    assert not rep.ok
    # [xi_1, xi_1] = -xi_empty does not involve xi_1, so phi(lhs) is
    # unchanged while the right side picks up the factor 4
    assert ((0, mask_of((1,)), 0), (0, mask_of((1,)), 0)) in rep.failures
