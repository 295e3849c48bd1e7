import re
from collections import Counter
from fractions import Fraction

import pytest

from k4verma import solver as sv
from k4verma.annihilation import CKEY
from k4verma.exact import I, ONE, RowReducer, scal
from k4verma.grassmann import ALL_MASKS, MASK_ALL, mask_of, size
from k4verma.verma import _primal_template, act, degree, theta_mul
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


def test_classify_detects_a_broken_dual_route(fresh_solver_caches,
                                              monkeypatch):
    # negative control: the dual action loses its lambda^1 coefficients
    dual = sv.dual_lambda_action

    def no_lambda_one(imask, v, wt):
        return {lp: vec for lp, vec in dual(imask, v, wt).items() if lp != 1}

    monkeypatch.setattr(sv, "dual_lambda_action", no_lambda_one)
    with pytest.raises(RuntimeError, match=r"dual route disagrees at weight "
                                           r"\(0,0,0,0\) degree 2"):
        sv.classify(sv.FAMILIES["1a"].weight_at(0, 0))


@pytest.mark.parametrize("corrupt",
                         ["no-mu-t-parts", "one-free-sign", "one-k0-sign"])
def test_classify_detects_a_corrupted_dual_cache(fresh_solver_caches,
                                                 corrupt):
    # negative control: after a classify fills the record of shape
    # (1, 0, 1) at 1b(1, 0), its rows lose every mu_t part, or one entry
    # of A0 or of a K0 vector changes sign; the fixture drops the record.
    # The kernel there is the second K0 vector, so both signs are on it.
    wt = sv.FAMILIES["1b"].weight_at(1, 0)
    sv.classify(wt)
    rec = sv._dual_record(1, 0, 1)
    if corrupt == "no-mu-t-parts":
        for _, at, _ in rec.rows:
            at.clear()
    elif corrupt == "one-free-sign":
        a0 = next(a0 for a0, _, _ in rec.rows if 1 in a0)
        a0[1] = -a0[1]
    else:
        vec = rec.k0[1]
        key = next(iter(vec))
        vec[key] = -vec[key]
    with pytest.raises(RuntimeError, match=r"dual route disagrees at weight "
                                           r"\(1,0,3/2,-3/2\) degree 1"):
        sv.classify(wt)


GAUSS_MU = (scal(F(7, 3), F(1, 2)), scal(F(-4, 5), 2))


def _referee(wt, d, mu_free=False):
    """Fail, naming the shape, unless the staged dual kernel, the primal
    kernel and the kernel of the direct full dual system agree at (wt, d);
    with mu_free, also unless the direct rows outside the keys that
    _dual_mu names, relabeled with each column's monomial, equal the
    direct rows at mu = 0."""
    shape = (wt.m, wt.n, d)
    cols = sv.candidate_keys(wt, d)
    unit = [{vk: ONE} for vk in cols]
    direct = sv._direct_rows(wt, unit)
    kern = sv._canonical(sv._kernel(direct.values(), unit), cols)
    assert sv.solve(wt, d, dual=True).kernel == kern, shape
    assert sv.solve(wt, d).kernel == kern, shape
    if mu_free:
        reached = sv._reached(cols)
        at_zero = sv._direct_rows(weight(wt.m, wt.n, 0, 0), unit)
        assert {key: row for key, row in direct.items()
                if key not in reached} == \
            {key: row for key, row in at_zero.items()
             if key not in reached}, shape


def test_hw_route_matches_the_unreduced_dual_route():
    # the referee of both routes: every shape m, n <= 3 at degrees 1-5 at a
    # Gaussian mu that no sweep uses, where the rows no mu reaches must not
    # move either (so the mu keys taken on F(0, 0) serve every shape), then
    # one member of each family at its degree
    for m in range(4):
        for n in range(4):
            for d in range(1, 6):
                _referee(weight(m, n, *GAUSS_MU), d, mu_free=True)
    for label, fam in sv.FAMILIES.items():
        wt = fam.weight_at(fam.box[0], fam.box[2])
        assert sv.solve(wt, fam.deg).labels == (label,)
        _referee(wt, fam.deg)
    # the rows no mu reaches already cut each slice down to a few vectors
    dims = [len(sv._dual_record(m, n, d).k0)
            for m in range(4) for n in range(4) for d in range(1, 6)]
    assert (sum(dims), max(dims)) == (63, 4)


def _k0_mismatches():
    """The shapes m, n <= 3 at degrees 1-5 where the span of the K0 that
    _k0 builds is not the kernel of every row that no mu reaches, all
    evaluated directly."""
    bad = []
    for m in range(4):
        for n in range(4):
            wt = weight(m, n, 0, 0)
            for d in range(1, 6):
                cols = sv.candidate_keys(wt, d)
                unit = [{vk: ONE} for vk in cols]
                reached = sv._reached(cols)
                rows = [row for key, row in sv._direct_rows(wt, unit).items()
                        if key not in reached]
                if sv._canonical(sv._k0(wt, cols, reached), cols) != \
                        sv._canonical(sv._kernel(rows, unit), cols):
                    bad.append((m, n, d))
    return bad


def test_k0_by_generator_group_spans_the_unreached_kernel():
    # referee of the group-by-group K0: its span is the kernel of all the
    # rows no mu reaches, though its basis may differ
    assert _k0_mismatches() == []


def test_k0_referee_fails_on_a_stop_at_a_group_of_no_rank(
        fresh_solver_caches, monkeypatch):
    # negative control: a build that stops as soon as a generator group
    # adds no rank, not only at full rank, keeps K0 too large
    def early_stop(wt, cols, reached):
        unit = [{vk: ONE} for vk in cols]
        red = RowReducer(len(cols))
        for masks in sv._K0_GROUPS:
            rank = len(red.pivots)
            for key, row in sv._direct_rows(wt, unit, masks).items():
                if key not in reached:
                    red.add_row(row)
            if len(red.pivots) in (rank, len(cols)):
                break
        return tuple({cols[i]: c for i, c in vec.items()}
                     for vec in red.nullspace())

    monkeypatch.setattr(sv, "_k0", early_stop)
    bad = _k0_mismatches()
    assert bad[:3] == [(0, 0, 2), (0, 0, 3), (0, 0, 4)] and len(bad) == 64
    # the record sees a K0 too large by itself: a row no mu reaches is
    # nonzero on it, at exactly those shapes, so classify raises there
    with pytest.raises(RuntimeError, match=re.escape("(0, 0, 2)")):
        sv.classify(weight(0, 0, 0, 0))
    raising = []
    for shape in ((m, n, d) for m in range(4) for n in range(4)
                  for d in range(1, 6)):
        try:
            sv._dual_record(*shape)
        except RuntimeError as exc:
            assert f"(m, n, d) = {shape}" in str(exc)
            raising.append(shape)
    assert raising == bad


def _multiset(rows):
    return Counter(frozenset(row.items()) for row in rows)


def test_dual_cache_splits_by_how_mu_enters():
    # referee of the split: at a Gaussian mu that no sweep uses, the rows
    # each shape's record combines as A0 + mu_t At + mu_C AC equal, as a
    # multiset, the direct rows on its K0, for every shape m, n <= 3 at
    # degrees 1-5
    for m in range(4):
        for n in range(4):
            wt = weight(m, n, *GAUSS_MU)
            for d in range(1, 6):
                k0 = sv._dual_record(m, n, d).k0
                assert _multiset(sv._assemble_rows(wt, k0, True)) == \
                    _multiset(sv._direct_rows(wt, k0).values()), (m, n, d)
    # the mu keys taken on F(0, 0) serve columns of every Theta power too:
    # on the nmax = 5 Theta-ansatz columns at the two weights of criterion
    # 09, an entry moves with mu only at a key that _dual_mu names for
    # its column
    for m, n in ((1, 0), (0, 4)):
        wt = weight(m, n, *GAUSS_MU)
        cols = sorted((k, l, mon) for k in range(6) for l in ALL_MASKS
                      for mon in wt.keys())
        unit = [{vk: ONE} for vk in cols]
        direct = sv._direct_rows(wt, unit)
        at_zero = sv._direct_rows(weight(m, n, 0, 0), unit)
        moved = {(key, ci) for key in {**direct, **at_zero}
                 for ci in {**direct.get(key, {}), **at_zero.get(key, {})}
                 if direct.get(key, {}).get(ci) !=
                 at_zero.get(key, {}).get(ci)}
        assert moved, (m, n)
        for (cond, (k2, l2, mon2)), ci in moved:
            k, l, mon = cols[ci]
            assert mon2 == mon and \
                (cond, (k2, l2, (0, 0))) in sv._dual_mu(k, l), \
                ((m, n), cols[ci], cond)


def test_referee_fails_on_a_mu_key_treated_as_pure(fresh_solver_caches,
                                                   monkeypatch):
    # negative control: one row key of shape (0, 0, 2) that mu reaches, and
    # whose row at mu = 0 vanishes on neither the 2a nor the 2b member at
    # (0, 0), leaves every column's mu keys, so the record imposes its
    # mu = 0 row as a pure one and K0 loses both members
    wt0 = weight(0, 0, 0, 0)
    members = [sv.build_theorem_vector(label, 0, 0) for label in ("2a", "2b")]
    at_zero = sv._direct_rows(wt0, [v for _, v in members])
    key = next(key for k, l, _ in sv.candidate_keys(wt0, 2)
               for key in sv._dual_mu(k, l) if len(at_zero.get(key, ())) == 2)
    dual_mu = sv._dual_mu
    monkeypatch.setattr(sv, "_dual_mu", lambda k, l: dual_mu(k, l) - {key})
    for wt, mu_free in ((weight(0, 0, *GAUSS_MU), True),
                        *((wt, False) for wt, _ in members)):
        with pytest.raises(AssertionError, match=r"\(0, 0, 2\)"):
            _referee(wt, 2, mu_free)


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
                for _, _, _, tok in _primal_template(pm, k, l)[0]:
                    assert tok not in ((1, 0), CKEY), (pm, k, l)
    for m, n in [(2, 2), (3, 3), (4, 4), (5, 2)]:
        assert [len(sv._hw_basis(m, n, d)) for d in range(1, 6)] == \
            [4, 7, 8, 8, 8], (m, n)


def test_hw_basis_meets_the_clebsch_gordan_count(fresh_solver_caches):
    # with every cache empty, each build runs its Clebsch-Gordan check
    for m in range(4):
        for n in range(4):
            for d in range(1, 6):
                assert len(sv._hw_basis(m, n, d)) == sv._hw_count(m, n, d)
    assert [sv._hw_count(0, 0, d) for d in range(1, 6)] == [1, 3, 2, 4, 2]


def test_hw_referee_fails_without_a_clebsch_gordan_term(fresh_solver_caches,
                                                        monkeypatch):
    # negative control: Lambda^2(eta) loses its (0, 2) component, which
    # only the degrees with an even r reach
    eta = list(sv._LAMBDA_ETA)
    eta[2] = ((2, 0),)
    monkeypatch.setattr(sv, "_LAMBDA_ETA", tuple(eta))
    assert len(sv._hw_basis(1, 1, 3)) == 8
    with pytest.raises(RuntimeError,
                       match=re.escape("shape (m, n, d) = (1, 1, 2)")):
        sv._hw_basis(1, 1, 2)


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
    hw_basis = sv._hw_basis
    basis = hw_basis(*shape)
    cols = sv.candidate_keys(wt, 2)
    drops = [basis[:i] + basis[i + 1:] for i in range(len(basis))]
    rest = next(r for r in drops if len(sv._canonical([*r, v], cols)) > len(r))
    monkeypatch.setattr(sv, "_hw_basis",
                        lambda *s: rest if s == shape else hw_basis(*s))
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
    assert not rep.ok and rep.failures


@pytest.mark.parametrize("key", [(0, 0, (0, 0)), (0, 1, (0, 0))])
def test_verify_vector_rejects_an_all_zero_vector(key):
    # a zero coefficient does not make a candidate; degree() drops it
    with pytest.raises(ValueError, match="zero vector"):
        sv.verify_vector({key: scal(0)}, weight(0, 0, 0, 0))


def test_verify_vector_requires_homogeneous_input():
    wt, v = sv.build_theorem_vector("1a", 0, 0)
    mixed = {**v, (1, 0, (0, 0)): ONE}
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
    k5 = sv.theta_ansatz_kernel(wt, 5)
    assert sv.theta_ansatz_kernel(wt, 3) == k5
    # the eta_1234 line is the image of the module generator itself
    assert {(0, MASK_ALL, (1, 0)): ONE} in k5


def test_theta_ansatz_trivial_for_the_coadjoint_weight():
    assert sv.theta_ansatz_kernel(weight(0, 0, 2, 0), 4) \
        == ({(0, MASK_ALL, (0, 0)): ONE},)


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
    # seeds whose draws repeat a weight: each repeat is skipped
    for max_mn, seed in ((0, 1), (1, 5)):
        wts = sv.off_list_weights(max_mn, 30, seed)
        assert len(set(wts)) == len(wts) == 30, (max_mn, seed)


def test_off_list_weights_reject_a_count_above_the_candidates():
    # 107 weights next to a formula at (0, 0) are claimed by no family:
    # all of them can be drawn, and one more is an error naming that number
    assert len(set(sv.off_list_weights(0, 107, 1))) == 107
    with pytest.raises(ValueError, match="108 exceeds the 107 off-list"):
        sv.off_list_weights(0, 108, 1)


def test_fresh_solver_caches_finds_the_solver_caches(fresh_solver_caches):
    names = {(f.__module__.rpartition(".")[2], f.__name__)
             for f in fresh_solver_caches}
    assert names >= {
        ("solver", "_hw_basis"), ("solver", "_dual_mu"),
        ("solver", "_dual_record"), ("verma", "_primal_template"),
        ("verma", "_dual_template"), ("verma", "_oracle_template"),
        ("weights", "_xi_image"),
        ("coadjoint", "_pairing"), ("coadjoint", "_phi_key"),
        ("annihilation", "_key_bracket_plain"),
        ("annihilation", "_key_bracket")}
    assert all(f.cache_info().currsize == 0 for f in fresh_solver_caches)


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
