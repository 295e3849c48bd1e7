import pytest

from k4verma import annihilation as an
from k4verma import cli
from k4verma import coadjoint as co
from k4verma import conformal as cf
from k4verma.exact import I, ONE, ZERO, acc, axpy, scal
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


def test_plain_table_holds_ints():
    keys = an.basis(3, with_central=False)
    for x in keys:
        for y in keys:
            for _, c in an._key_bracket_plain(*x, *y):
                assert type(c) is int, (x, y, c)


def _ref_bracket(a, b, psi=an.psi_default):
    """The bracket by its definition, one key pair at a time: the plain
    table's items as scalars, then psi's C term."""
    out = {}
    for x, ca in a.items():
        for y, cb in b.items():
            if an.CKEY not in (x, y):
                cab = ca * cb
                axpy(out, cab, [(k, scal(c))
                                for k, c in an._key_bracket_plain(*x, *y)])
                acc(out, an.CKEY, psi(x, y) * cab)
    return out


# -- the split Jacobi sweeps against the bracket route they replaced ---------

def _jacobi_by_bracket(max_tpow, psi):
    """The extension's Jacobi failures as the sweep found them before the
    plain/central split: each key a one-entry dict, three full brackets,
    central term included, per triple."""
    keys = an.basis(max_tpow, with_central=False)
    singles = {k: {k: ONE} for k in keys}
    pair = {(x, y): _ref_bracket(singles[x], singles[y], psi)
            for x in keys for y in keys}
    failures = []
    for a in keys:
        for b in keys:
            sgn = scal((-1) ** (an.parity(a) * an.parity(b)))
            for c in keys:
                lhs = _ref_bracket(singles[a], pair[b, c], psi)
                rhs = _ref_bracket(pair[a, b], singles[c], psi)
                axpy(rhs, sgn,
                     _ref_bracket(singles[b], pair[a, c], psi).items())
                axpy(lhs, scal(-1), rhs.items())
                if lhs:
                    failures.append((a, b, c))
    return failures


XI1 = (0, mask_of((1,)))
TOP = (0, MASK_ALL)


def _patch_plain_entry(monkeypatch, change):
    """[xi_1, xi_1] = -1 (the empty monomial) has its int coefficient
    replaced by change(coefficient), for every reader of
    `_key_bracket_plain`."""
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


def _both_paths(x, y):
    memo, ref = an.bracket(x, y), _ref_bracket(x, y)
    assert list(memo.items()) == list(ref.items()), (x, y)
    return memo


def test_memo_bracket_matches_the_explicit_path():
    # referee: the one-lookup bracket and the bracket by its definition
    # (plain table, then psi's C term) agree item for item, order
    # included, on every pair of singletons of basis(1) and C, on a
    # singleton against a bracket result either way round (the shapes of
    # the Jacobi slices), and on elements that hold a zero coefficient
    keys = an.basis(1)
    single = {k: {k: ONE} for k in keys}
    pair = {(x, y): _both_paths(single[x], single[y])
            for x in keys for y in keys}
    assert any(an.CKEY in v for v in pair.values())
    for x in keys:
        for p in pair.values():
            _both_paths(single[x], p)
            _both_paths(p, single[x])
    with_zero = {XI1: ZERO, (0, MASK_ALL): scal(3), an.CKEY: ONE,
                 (1, mask_of((2,))): I}
    other = {(0, 0): scal(2), XI1: ONE, (0, complement(XI1[1])): scal(-1)}
    assert _both_paths(with_zero, other)
    assert _both_paths(other, with_zero)
    assert _both_paths({XI1: ZERO}, other) == {}


def test_both_bracket_paths_read_a_patched_plain_entry(fresh_solver_caches,
                                                       monkeypatch):
    # the memo reads the plain table through the module, so a patched
    # entry reaches both paths: [xi_1, xi_1] = -1 becomes +1
    _patch_plain_entry(monkeypatch, lambda c: -c)
    x = {XI1: ONE}
    assert _both_paths(x, x) == {(0, 0): ONE}


def test_a_patched_plain_entry_reaches_the_sweeps_and_the_pairing(
        fresh_solver_caches, monkeypatch):
    # the other readers of the one table: both sweeps fail on the flipped
    # [xi_1, xi_1], and xi_1 acting on the dual of xi_empty changes sign
    assert co.coadjoint_act({XI1: ONE}, {(0, 0): ONE}) == {XI1: ONE}
    co._pairing.cache_clear()
    _patch_plain_entry(monkeypatch, lambda c: -c)
    jac = an.check_jacobi(0)
    assert len(jac.failures) == 18
    assert jac.failures[0] == ((0, 1), (0, 2), (0, 3))
    assert an.check_cocycle(0).failures == [
        ("cocycle", XI1, XI1, TOP), ("cocycle", XI1, TOP, XI1),
        ("cocycle", TOP, XI1, XI1)]
    assert co.coadjoint_act({XI1: ONE}, {(0, 0): ONE}) == {XI1: -ONE}


def test_a_flipped_star_sign_fails_both_jacobi_sweeps(fresh_solver_caches,
                                                      monkeypatch):
    # negative control for the int contractions: xi_1 xi_2 = -xi_12 in
    # the wedge table that both bracket formulas read, while xi_2 xi_1
    # keeps its sign, breaks the conformal and the annihilation Jacobi;
    # the annihilation sweeps name (xi_1, xi_13, xi_23) among others, and
    # exactly the triples that the three-bracket referee fails
    star = [list(row) for row in STAR]
    sign, mask = star[1][2]
    star[1][2] = (-sign, mask)
    flipped = tuple(map(tuple, star))
    monkeypatch.setattr(cf, "STAR", flipped)
    monkeypatch.setattr(an, "STAR", flipped)
    xi = {i: (0, mask_of((i,))) for i in (1, 2)}
    conformal = cf.check_conformal_axioms(0).failures
    assert ("jacobi", xi[1], xi[1], xi[2]) in conformal
    jac = an.check_jacobi(0)
    assert ((0, 1), (0, 5), (0, 6)) in jac.failures
    assert an.extension_failures(jac, an.check_cocycle(0)) \
        == _jacobi_by_bracket(0, an.psi_default)


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
