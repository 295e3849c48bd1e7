from collections import Counter
from fractions import Fraction

import pytest

from k4verma import solver as sv
from k4verma.annihilation import CKEY
from k4verma.exact import I, ONE, scal
from k4verma.grassmann import ALL_MASKS, MASK_ALL, mask_of, size
from k4verma.verma import _primal_template, act, degree, \
    dual_lambda_action, theta_mul, transform_T, vvec_add
from k4verma.weights import weight

F = Fraction


def test_family_weights_frozen():
    checks = {
        ("1a", 2, 3): (2, 3, F(-5, 2), F(-1, 2)),
        ("1b", 1, 0): (1, 0, F(3, 2), F(-3, 2)),
        ("1c", 1, 1): (1, 1, 3, 0),
        ("1d", 0, 1): (0, 1, F(3, 2), F(3, 2)),
        ("2a", 0, 0): (0, 0, 1, -1),
        ("2b", 4, 0): (4, 0, -1, 3),
        ("2c", 2, 0): (2, 0, 3, -1),
        ("2d", 0, 3): (0, 3, F(7, 2), F(3, 2)),
        ("3a", 1, 0): (1, 0, F(5, 2), F(-1, 2)),
        ("3b", 0, 1): (0, 1, F(5, 2), F(1, 2)),
    }
    for (label, m, n), tup in checks.items():
        wt, _ = sv.build_theorem_vector(label, m, n)
        assert wt == weight(*tup), label


def test_theorem_vector_1d_frozen():
    # w12 (x) y1 - w11 (x) y2 written out in the monomial basis
    wt, v = sv.build_theorem_vector("1d", 0, 1)
    assert wt == weight(0, 1, F(3, 2), F(3, 2))
    expect = {(0, mask_of((4,)), (0, 1)): scal(-1),
              (0, mask_of((3,)), (0, 1)): I,
              (0, mask_of((2,)), (0, 0)): scal(-1),
              (0, mask_of((1,)), (0, 0)): scal(0, -1)}
    assert v == expect


def test_theorem_vector_2a_frozen():
    wt, v = sv.build_theorem_vector("2a", 0, 0)
    assert wt == weight(0, 0, 1, -1)
    mon = (0, 0)
    expect = {(0, mask_of((2, 4)), mon): ONE, (0, mask_of((2, 3)), mon): I,
              (0, mask_of((1, 4)), mon): I, (0, mask_of((1, 3)), mon): scal(-1)}
    assert v == expect


def test_out_of_range_parameters_raise():
    for label, m, n in [("1b", 0, 2), ("1c", 0, 1), ("2a", 1, 1),
                        ("2c", 1, 0), ("2d", 0, 1), ("3a", 0, 0)]:
        with pytest.raises(ValueError):
            sv.build_theorem_vector(label, m, n)
    with pytest.raises(KeyError):
        sv.build_theorem_vector("4z", 0, 0)


def test_kernels_match_the_classification():
    cases = [("1a", 0, 0), ("1a", 3, 1), ("1b", 2, 2), ("1c", 1, 2),
             ("1d", 1, 1), ("2a", 0, 3), ("2b", 1, 0), ("2c", 3, 0),
             ("2d", 0, 2), ("3a", 1, 0), ("3b", 0, 1)]
    for label, m, n in cases:
        wt, _ = sv.build_theorem_vector(label, m, n)
        rep = sv.solve(wt, sv.FAMILIES[label].deg)
        assert rep.kernel_dim == 1, (label, m, n)
        assert rep.labels == (label,), (label, m, n)


def test_off_list_weights_give_trivial_kernels():
    empties = [weight(0, 0, 2, 0), weight(1, 1, 0, 0),
               weight(2, 0, F(1, 2), F(1, 2)), weight(0, 2, -1, 1)]
    for wt in empties:
        for d in (1, 2, 3):
            assert sv.expected_labels(wt, d) == []
            assert sv.solve(wt, d).kernel_dim == 0, (wt, d)


def test_dual_assembly_route_agrees():
    picks = [(weight(1, 0, F(5, 2), F(-1, 2)), 3),
             (weight(0, 2, 0, -1), 1),          # 1a at (0,2)
             (weight(2, 0, 0, 2), 2),           # 2b at m=2
             (weight(0, 0, 2, 0), 2)]
    for wt, d in picks:
        a = sv.solve(wt, d)
        b = sv.solve(wt, d, dual=True)
        assert a.kernel == b.kernel, (wt, d)


def test_classify_cross_checks_both_routes():
    wt, _ = sv.build_theorem_vector("2d", 0, 4)
    by_degree = sv.classify(wt)
    assert [by_degree[d].kernel_dim for d in (1, 2, 3)] == [0, 1, 0]
    assert by_degree[2].labels == ("2d",)


def test_classify_detects_a_broken_dual_route(monkeypatch):
    # negative control: the dual action loses its lambda^1 coefficients
    dual = sv.dual_lambda_action

    def no_lambda_one(imask, v, wt):
        return {lp: vec for lp, vec in dual(imask, v, wt).items() if lp != 1}

    monkeypatch.setattr(sv, "dual_lambda_action", no_lambda_one)
    # fresh caches fill through the patch and are dropped at teardown
    monkeypatch.setattr(sv, "_DUAL_FREE", {})
    monkeypatch.setattr(sv, "_DUAL_MU", {})
    with pytest.raises(RuntimeError, match=r"dual route disagrees at weight "
                                           r"\(0,0,0,0\) degree 2"):
        sv.classify(sv.FAMILIES["1a"].weight_at(0, 0))


@pytest.mark.parametrize("corrupt", ["no-mu-t-parts", "one-free-sign"])
def test_classify_detects_a_corrupted_dual_cache(monkeypatch, corrupt):
    # negative control: after a classify fills both caches at 1b(1, 0),
    # either every cached mu_t part is dropped or one mu-free entry of
    # shape (1, 0) changes sign; copies are patched in, so the corruption
    # is dropped at teardown
    wt = sv.FAMILIES["1b"].weight_at(1, 0)
    sv.classify(wt)
    if corrupt == "no-mu-t-parts":
        monkeypatch.setattr(sv, "_DUAL_MU", {
            kl: (((), ()), c_part) for kl, (_, c_part) in sv._DUAL_MU.items()})
    else:
        key = (1, 0, sv.candidate_keys(wt, 1)[0])
        keys, vals = sv._DUAL_FREE[key]
        monkeypatch.setattr(sv, "_DUAL_FREE", {
            **sv._DUAL_FREE, key: (keys, (-vals[0], *vals[1:]))})
    with pytest.raises(RuntimeError, match=r"dual route disagrees at weight "
                                           r"\(1,0,3/2,-3/2\) degree 1"):
        sv.classify(wt)


def _direct_rows(wt, cols):
    """The rows of a direct dual_lambda_action on T of each unit column,
    as a multiset of {column: c} rows."""
    def conditions(tcol):
        return sv._conditions({imask: dual_lambda_action(imask, tcol, wt)
                               for imask in ALL_MASKS})
    rows = sv._rows(conditions(transform_T({vk: ONE})) for vk in cols)
    return Counter(frozenset(row.items()) for row in rows)


def test_dual_cache_splits_by_how_mu_enters():
    # referee of the split: at a Gaussian mu that no sweep uses, the rows
    # combined from the cached images equal those of a direct evaluation,
    # on every column of every shape m, n <= 3 at degrees 1-3 and on the
    # nmax = 5 Theta-ansatz columns of criterion 09; the mu parts, taken
    # on F(0, 0), serve every shape
    mu = (scal(F(7, 3), F(1, 2)), scal(F(-4, 5), 2))
    cases = [(weight(m, n, *mu), sv.candidate_keys(weight(m, n, 0, 0), d))
             for m in range(4) for n in range(4) for d in (1, 2, 3)]
    for m, n in ((1, 0), (0, 4)):
        wt = weight(m, n, *mu)
        cases.append((wt, sorted((k, l, mon) for k in range(6)
                                 for l in ALL_MASKS for mon in wt.keys())))
    for wt, cols in cases:
        got = sv._assemble_rows(wt, [{vk: ONE} for vk in cols], True)
        assert Counter(frozenset(row.items()) for row in got) == \
            _direct_rows(wt, cols), (wt, len(cols))


def test_hw_route_matches_the_unreduced_dual_route():
    # every shape of the gate at a mu that no sweep uses (thirds and
    # fifths), then one member of each family at its degree
    for m in range(4):
        for n in range(4):
            wt = weight(m, n, F(7, 3), F(-4, 5))
            for d in range(1, 6):
                assert sv.solve(wt, d).kernel == \
                    sv.solve(wt, d, dual=True).kernel, (wt, d)
    for label, fam in sv.FAMILIES.items():
        wt = fam.weight_at(fam.box[0], fam.box[2])
        rep = sv.solve(wt, fam.deg)
        assert rep.labels == (label,)
        assert rep.kernel == sv.solve(wt, fam.deg, dual=True).kernel, label


def test_hw_basis_is_mu_free_and_sized_per_shape():
    # the basis is cached per (m, n, d) because no lambda^0 term of a
    # pair-mask template carries a t or C token, at any Theta power and
    # eta mask that degrees up to 5 reach
    pmasks = {pm for _, g in sv._E_ROWS for _, pm in g}
    assert len(pmasks) == 4
    for pm in pmasks:
        for k in range(3):
            for l in ALL_MASKS:
                if 2 * k + size(l) > 5:
                    continue
                for lp, _, _, _, tok in _primal_template(pm, k, l):
                    assert lp or tok not in ((1, 0), CKEY), (pm, k, l)
    for m, n in [(2, 2), (3, 3), (4, 4), (5, 2)]:
        assert [len(sv._hw_basis(m, n, d)) for d in range(1, 6)] == \
            [4, 7, 8, 8, 8], (m, n)


def test_shortcut_kernel_is_checked_against_every_condition(monkeypatch):
    # negative control: without t(xi_1 + i xi_2) the shortcut kernel at
    # (0,0,0,0) degree 2 holds Theta (x) v, which the full sweep rejects
    monkeypatch.setattr(sv, "_SHORTCUT", sv._SHORTCUT[:1])
    with pytest.raises(RuntimeError,
                       match=r"weight \(0,0,0,0\) degree 2"):
        sv.solve(weight(0, 0, 0, 0), 2)
    # with no rows the whole hw span comes back, and a vector that fails
    # the shortcut and the full sweep alike is caught too
    monkeypatch.setattr(sv, "_assemble_rows", lambda wt, cols, dual: [])
    with pytest.raises(RuntimeError,
                       match=r"weight \(1,1,0,0\) degree 3"):
        sv.solve(weight(1, 1, 0, 0), 3)


def test_classify_detects_a_short_hw_basis(monkeypatch):
    # negative control: the cached basis loses a vector that the 2c
    # member at (2, 0) needs, so the primal route misses it
    wt, v = sv.build_theorem_vector("2c", 2, 0)
    shape = (2, 0, 2)
    basis = sv._hw_basis(*shape)
    cols = sv.candidate_keys(wt, 2)
    drops = [basis[:i] + basis[i + 1:] for i in range(len(basis))]
    rest = next(r for r in drops if len(sv._canonical([*r, v], cols)) > len(r))
    monkeypatch.setitem(sv._HW_BASES, shape, rest)
    with pytest.raises(RuntimeError, match=r"dual route disagrees at weight "
                                           r"\(2,0,3,-1\) degree 2"):
        sv.classify(wt)


def test_verify_vector_detects_a_broken_shortcut(monkeypatch):
    # negative control: the shortcut's generators act as zero, so Theta
    # times a singular vector passes there and fails the full sweep
    wt, v = sv.build_theorem_vector("1a", 0, 0)
    images = sv._images
    # the four shortcut generators act as zero; the full sweep's e rows
    # keep their images
    monkeypatch.setattr(sv, "_images", lambda table, lam: (
        images(table, lam) if table is sv._E_ROWS
        else {tag: {} for tag, _ in table}))
    with pytest.raises(RuntimeError, match="full sweep and shortcut disagree"):
        sv.verify_vector(theta_mul(v), wt)


def test_degree_two_boundary_parameter_is_empty():
    # the c/d families start at parameter 2; at 1 the formula weight
    # admits no singular vector at all
    for label in ("2c", "2d"):
        m, n = (1, 0) if label == "2c" else (0, 1)
        wt = sv.FAMILIES[label].weight_at(m, n)
        assert sv.expected_labels(wt, 2) == []
        assert sv.solve(wt, 2).kernel_dim == 0, label


def test_verify_vector_accepts_the_tables():
    for label, m, n in [("1a", 1, 2), ("1b", 1, 0), ("2b", 0, 0),
                        ("3b", 0, 1)]:
        wt, v = sv.build_theorem_vector(label, m, n)
        rep = sv.verify_vector(v, wt)
        assert rep.ok and rep.failures == ()
        # scalar multiples verify identically
        assert sv.verify_vector({k: c * scal(3, -2) for k, c in v.items()},
                                wt).ok


def test_verify_vector_rejects_shifted_weight():
    wt, v = sv.build_theorem_vector("1a", 2, 1)
    wrong = weight(wt.m, wt.n, wt.mu_t.re + 1, wt.mu_C.re)
    rep = sv.verify_vector(v, wrong)
    assert not rep.ok
    assert rep.failures and rep.shortcut_failures


def test_verify_vector_requires_homogeneous_input():
    wt, v = sv.build_theorem_vector("1a", 0, 0)
    mixed = vvec_add(v, {(1, 0, (0, 0)): ONE})
    assert degree(mixed) == "mixed"
    with pytest.raises(ValueError):
        sv.verify_vector(mixed, wt)
    with pytest.raises(ValueError):
        sv.verify_vector({}, wt)


def test_generators_heavier_than_the_degree_act_as_zero():
    wt = weight(1, 1, F(1, 2), F(1, 2))
    for vk in sv.candidate_keys(wt, 1):
        for key in [(2, 0), (2, 1), (1, 15), (2, 15), (3, 3)]:
            if 2 * key[0] + bin(key[1]).count("1") - 2 > 1:
                assert act(key, {vk: ONE}, wt) == {}, (vk, key)


def test_theta_ansatz_reproduces_the_degree_bound():
    wt = weight(1, 0, F(5, 2), F(-1, 2))
    r3 = sv.theta_degree_bound_check(wt, 3)
    r5 = sv.theta_degree_bound_check(wt, 5)
    assert r3.kernel == r5.kernel
    assert r5.shape_ok and r5.no_scalar_term
    assert r5.max_theta_seen == 1
    # the eta_1234 line is the image of the module generator itself
    assert {(0, MASK_ALL, (1, 0)): ONE} in r5.kernel


def test_theta_ansatz_trivial_for_the_coadjoint_weight():
    r = sv.theta_degree_bound_check(weight(0, 0, 2, 0), 4)
    assert r.kernel == ({(0, MASK_ALL, (0, 0)): ONE},)
    assert r.shape_ok and r.no_scalar_term


def test_degrees_four_and_five_are_empty():
    weights = [sv.FAMILIES[lab].weight_at(m, n)
               for lab, m, n in [("3a", 1, 0), ("3b", 0, 1), ("1a", 0, 0),
                                 ("2a", 0, 1)]]
    for wt in weights:
        for d in (4, 5):
            assert sv.solve(wt, d).kernel_dim == 0, (wt, d)


def test_solve_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        sv.solve(weight(0, 0, 0, 0), 0)


def test_in_range_agrees_with_the_theorem_vectors():
    for label, fam in sv.FAMILIES.items():
        for m in range(5):
            for n in range(5):
                try:
                    sv.build_theorem_vector(label, m, n)
                    built = True
                except ValueError:
                    built = False
                assert fam.in_range(m, n) == built, (label, m, n)


def test_table_weights_collect_every_member():
    table = sv.table_weights(3)
    assert len(table) == 63
    assert sum(len(v) for v in table.values()) == 63
    for wt, instances in table.items():
        for label, m, n in instances:
            assert sv.FAMILIES[label].in_range(m, n)
            assert sv.FAMILIES[label].weight_at(m, n) == wt
            assert label in sv.expected_labels(wt, sv.FAMILIES[label].deg)


def test_off_list_weights_are_seeded_and_claimed_by_no_family():
    wts = sv.off_list_weights(2, 12, 5)
    assert wts == sv.off_list_weights(2, 12, 5)
    assert wts != sv.off_list_weights(2, 12, 6)
    assert len(wts) == 12
    for wt in wts:
        assert 0 <= wt.m <= 2 and 0 <= wt.n <= 2
        assert not any(sv.expected_labels(wt, d) for d in (1, 2, 3))


def test_box_edge_weights_step_past_every_finite_bound():
    # 3a's box is the point (1, 0): one step past lo_m, hi_m and hi_n gives
    # the columns m = 0 and m = 2 and the row n = 1 of the 2x2 grid
    edges = sv.box_edge_weights(1)
    assert [(wt.m, wt.n) for lab, wt in edges if lab == "3a"] == [
        (0, 0), (0, 1), (1, 1)]
    assert not [lab for lab, _ in edges if lab == "1a"]
    # at max_mn 3 every one of them carries exactly the claimed kernel
    edges = sv.box_edge_weights(3)
    assert len(edges) == 57
    for label, wt in edges:
        fam = sv.FAMILIES[label]
        assert not fam.in_range(wt.m, wt.n)
        rep = sv.solve(wt, fam.deg)
        expect = sorted(sv.expected_labels(wt, fam.deg))
        assert rep.kernel_dim == len(expect), (label, str(wt))
        assert sorted(l for l in rep.labels if l) == expect, (label, str(wt))
