import re
from fractions import Fraction
from math import factorial

import pytest

from k4verma import annihilation as an
from k4verma import verma as vm
from k4verma.exact import ONE, ExactScalar, acc, axpy, scal
from k4verma.grassmann import EPS, MASK_ALL, mask_of, size
from k4verma.weights import weight

WT = weight(1, 1, scal("5/2"), scal(-3, "1/2"))
MON = (1, 1)


def V(k, idx, mon=MON, coeff=1):
    """coeff Theta^k eta_idx (x) mon, idx a tuple of indices or a mask."""
    mask = idx if isinstance(idx, int) else mask_of(idx)
    return {(k, mask, mon): ExactScalar._coerce(coeff)}


def add(a, b, scale=ONE):
    """a + scale * b, through the engine's one accumulate helper."""
    out = dict(a)
    axpy(out, scale, b.items())
    return out


def test_eta_multiplication():
    assert vm.eta_mul(1, V(0, (1,))) == V(1, ())
    assert vm.eta_mul(2, V(0, (1,))) == V(0, (1, 2), coeff=-1)
    assert vm.eta_mul(2, V(0, (1, 2))) == V(1, (1,), coeff=-1)
    assert vm.eta_mul(3, V(2, ())) == V(2, (3,))


def test_w_generators_super_brackets():
    # odd generators: the superbracket is the anticommutator
    v = V(0, ())
    for a, b, expect in [("11", "22", V(1, (), coeff=4)),
                         ("12", "21", V(1, (), coeff=-4)),
                         ("11", "12", {}), ("11", "21", {}),
                         ("22", "12", {}), ("22", "21", {}),
                         ("11", "11", {}), ("12", "12", {})]:
        anti = add(vm.w_mul(a, vm.w_mul(b, v)), vm.w_mul(b, vm.w_mul(a, v)))
        assert anti == expect, (a, b)
    # the plain commutator of w11 and w22 is 4i eta_12 instead
    comm = add(vm.w_mul("11", vm.w_mul("22", v)),
               vm.w_mul("22", vm.w_mul("11", v)), scal(-1))
    assert comm == V(0, (1, 2), coeff=scal(0, 4))


def test_transform_T_frozen():
    assert vm.transform_T(V(0, (1, 3))) == V(0, (2, 4), coeff=-1)
    assert vm.transform_T(V(2, ())) == V(2, (1, 2, 3, 4))
    for l in range(16):
        twice = vm.transform_T(vm.transform_T(V(1, l)))
        assert twice == V(1, l, coeff=(-1) ** (size(l) * (4 - size(l))))


def test_degree():
    assert vm.degree(V(2, (1, 3))) == 6
    assert vm.degree({}) == 0
    assert vm.degree(add(V(0, (1,)), V(1, ()))) == "mixed"


def test_t_acts_by_weight_minus_degree():
    for k in range(3):
        for l in range(16):
            v = V(k, l)
            expect_c = WT.mu_t - (2 * k + size(l))
            expect = {key: expect_c for key in v} if not expect_c.is_zero() else {}
            assert vm.act((1, 0), v, WT) == expect
            assert vm.act_oracle((1, 0), v, WT) == expect


def test_C_is_central_scalar():
    v = add(V(0, (1, 2)), V(1, (3,), coeff=scal(0, 2)))
    assert vm.act(an.CKEY, v, WT) == {k: c * WT.mu_C for k, c in v.items()}


def test_lambda_cubed_on_top_monomial():
    out = vm.lambda_action(0, V(0, (1, 2, 3, 4)), WT)
    assert out[3] == {(0, 0, MON): -WT.mu_C}
    assert vm.act((3, 0), V(0, (1, 2, 3, 4)), WT) == {(0, 0, MON): scal(-6) * WT.mu_C}


def test_high_t_powers_annihilate_theta_free_vectors():
    for m in range(3, 6):
        for imask in range(16):
            for l in range(16):
                out = vm.act((m, imask), V(0, l), WT)
                if (m, imask, l) == (3, 0, MASK_ALL):
                    assert out == {(0, 0, MON): scal(-6) * WT.mu_C}
                else:
                    assert out == {}


def test_lambda_degree_three_only_for_scalar_field():
    for imask in range(16):
        for l in range(16):
            out = vm.lambda_action(imask, V(0, l), WT)
            deg = max(out) if out else -1
            assert deg <= 3
            if 3 in out:
                assert imask == 0
                assert set(out[3]) == {(0, 0, MON)}


def test_lambda_degree_four_with_theta():
    # the degree cap does not survive Theta powers: 1 on Theta eta_1234
    out = vm.lambda_action(0, V(1, (1, 2, 3, 4)), WT)
    assert out[4] == {(0, 0, MON): -WT.mu_C}
    assert vm.act((4, 0), V(1, (1, 2, 3, 4)), WT) == {(0, 0, MON): scal(-24) * WT.mu_C}


def _oracle_mismatches(wt):
    """Each (j, imask, k, lmask), j < 4 and k <= 2, where act and act_oracle
    disagree on some unit vector Theta^k eta_L (x) mon."""
    return [(j, imask, k, l) for j in range(4) for imask in range(16)
            for k in range(3) for l in range(16)
            if any(vm.act((j, imask), V(k, l, mon), wt)
                   != vm.act_oracle((j, imask), V(k, l, mon), wt)
                   for mon in wt.keys())]


def test_oracle_equivalence_full_small_weight():
    # the central cross-check: closed form vs recursive commutation
    assert _oracle_mismatches(WT) == []


def test_act_disagrees_with_the_oracle_without_the_lambda_shift(
        fresh_solver_caches, monkeypatch):
    # negative control: a Theta step that keeps slice j of V_{k-1} at lambda
    # power j, where V_k = (Theta + lambda) V_{k-1} moves it to j + 1; the
    # templates of Theta power 0 do not take the step, those above do
    def unshifted(prev, imask, kprev, lmask):
        out = [{} for _ in range(len(prev) + 1)]
        for j, terms in enumerate(prev):
            for c, k2, l2, tok in terms:
                acc(out[j], (k2 + 1, l2, tok), c)
                acc(out[j], (k2, l2, tok), c)
        if size(imask) == 4:
            acc(out[0], (kprev, lmask, an.CKEY), scal(-EPS[imask]))
        return tuple(tuple((c, k2, l2, tok) for (k2, l2, tok), c in s.items())
                     for s in out)

    monkeypatch.setattr(vm, "_theta_step", unshifted)
    bad = _oracle_mismatches(WT)
    assert bad[0] == (0, 0, 1, 0) and (1, 0, 1, 0) in bad
    assert len(bad) == 1608 and {k for _, _, k, _ in bad} == {1, 2}


def test_dual_action_is_T_conjugate():
    for imask in range(16):
        for k in range(2):
            for l in range(16):
                v = V(k, l)
                lhs = vm.dual_lambda_action(imask, vm.transform_T(v), WT)
                rhs = {n: vm.transform_T(c)
                       for n, c in vm.lambda_action(imask, v, WT).items()}
                assert lhs == {n: c for n, c in rhs.items() if c}


def test_module_axiom_sampled():
    keys = [(0, 0), (0, 1), (0, 6), (0, 14), (0, MASK_ALL), (1, 0), (1, 9),
            (2, 2), (1, MASK_ALL)]
    vecs = [V(0, ()), V(0, (2,)), V(1, (1, 3)), V(0, (1, 2, 3, 4)), V(2, (4,))]
    for a in keys:
        pa = size(a[1]) & 1
        for b in keys:
            sgn = (-1) ** (pa * (size(b[1]) & 1))
            br = an.bracket({a: ONE}, {b: ONE})
            for v in vecs:
                lhs = add(vm.act(a, vm.act(b, v, WT), WT),
                          vm.act(b, vm.act(a, v, WT), WT), scal(-sgn))
                rhs: dict = {}
                for key, c in br.items():
                    for vk, vc in vm.act(key, v, WT).items():
                        rhs[vk] = rhs.get(vk, scal(0)) + vc * c
                rhs = {k: c for k, c in rhs.items() if not c.is_zero()}
                assert lhs == rhs, (a, b)


def test_template_tokens_are_degree_zero_keys():
    # a template is a tuple of slices, slice j holding the lambda^j terms
    # (coeff, Theta power, eta mask, token); the closed forms reach lambda
    # power k + 3, the oracle only power 0; a token is None or a degree-zero
    # key that the g0 action takes
    from k4verma.weights import act_g0
    for imask in range(16):
        for lmask in range(16):
            for k in range(3):
                slices = [*vm._primal_template(imask, k, lmask),
                          *vm._dual_template(imask, k, lmask)]
                assert len(slices) == 2 * (k + 4)
                for tpow in range(3):
                    oracle = vm._oracle_template(tpow, imask, k, lmask)
                    assert len(oracle) == 1
                    slices += oracle
                for term in (t for s in slices for t in s):
                    assert len(term) == 4
                    tok = term[3]
                    if tok is not None:
                        assert an.grade_key(tok) == 0
                        act_g0(tok, WT, (WT.m, WT.n))


def test_C_template_is_one_term_and_acts_through_g0():
    # C is central: the oracle recursion leaves it one C-token term, which
    # act_oracle evaluates through act_g0; act scales by act_g0's C image
    for k in range(3):
        for l in range(16):
            assert vm._oracle_template(*an.CKEY, k, l) == \
                (((ONE, k, l, an.CKEY),),)
            v = V(k, l)
            expect = {(k, l, MON): WT.mu_C}
            assert vm.act(an.CKEY, v, WT) == expect
            assert vm.act_oracle(an.CKEY, v, WT) == expect


def test_zero_mu_gives_empty_images():
    # at mu_C = 0 (the coadjoint weight) C acts by zero, and at mu_t = 0 so
    # does t; every action returns {} there, not explicit zero entries
    from k4verma.coadjoint import WT_COADJOINT
    from k4verma.weights import act_g0
    for k in range(3):
        for l in range(16):
            v = V(k, l, mon=(0, 0))
            assert vm.act(an.CKEY, v, WT_COADJOINT) == {}
            assert vm.act_oracle(an.CKEY, v, WT_COADJOINT) == {}
    assert act_g0(an.CKEY, WT_COADJOINT, (0, 0)) == ()
    w = weight(1, 0, 0, scal(3))
    assert act_g0((1, 0), w, (1, 0)) == ()


def test_actions_never_return_zero_entries():
    from k4verma.weights import act_g0
    w = weight(1, 0, 0, 0)
    keys = [an.CKEY] + [(j, imask) for j in range(3) for imask in range(16)]
    for key in keys:
        for mon in w.keys():
            images = [dict(act_g0(key, w, mon))] \
                if an.grade_key(key) == 0 else []
            for k in range(2):
                for l in range(16):
                    v = V(k, l, mon=mon)
                    images += [vm.act(key, v, w), vm.act_oracle(key, v, w)]
            for img in images:
                assert not any(c.is_zero() for c in img.values()), key


def test_act_elem_is_the_sum_of_key_actions():
    g = {(0, mask_of((1, 3))): scal(2), (1, 0): scal(0, 1), an.CKEY: ONE}
    v = add(V(0, (1, 2)), V(1, (3,), coeff=scal(0, 2)))
    expect = {}
    for key, c in g.items():
        expect = add(expect, vm.act(key, v, WT), c)
    assert vm.act_elem(g, v, WT) == expect


def test_act_is_j_factorial_times_the_lambda_power_j_coefficient():
    # act evaluates only the template terms of lambda power j; the full
    # expansion of lambda_action referees it on every unit vector with
    # Theta power <= 2, at a generic weight and at the coadjoint weight,
    # where mu_t = 2 and mu_C = 0 leave many images empty
    from k4verma.coadjoint import WT_COADJOINT
    for wt in (weight(1, 1, Fraction(7, 3), Fraction(-4, 5)), WT_COADJOINT):
        for imask in range(16):
            for k in range(3):
                for l in range(16):
                    for mon in wt.keys():
                        v = V(k, l, mon=mon)
                        lam = vm.lambda_action(imask, v, wt)
                        for j in range(4):
                            got = vm.act((j, imask), v, wt)
                            f = scal(factorial(j))
                            assert got == {vk: c * f for vk, c
                                           in lam.get(j, {}).items()}, \
                                (j, imask, v, wt)
                            assert not any(c.is_zero() for c in got.values())


@pytest.mark.parametrize("key", [(0, 16), (0, -1), (-1, 3), (-2, 0)])
def test_keys_outside_the_basis_are_rejected(key):
    # a t-power below 0 other than C = (-1, 0), or a mask outside 0..15, is
    # no basis key: both the closed form and the oracle raise and name it
    wt = weight(1, 0, Fraction(1, 3), 2)
    v = {(0, mask_of((1, 2)), (1, 0)): ONE}
    for action in (vm.act, vm.act_oracle):
        with pytest.raises(ValueError, match=re.escape(f"{key} is not")):
            action(key, v, wt)


@pytest.mark.parametrize("mask", [-1, 16, 17])
def test_masks_outside_0_to_15_are_rejected(mask):
    # the cold build of each closed form checks both masks and names the
    # one outside 0..15, as a generator mask or as an eta mask
    wt = weight(1, 0, 1, 2)
    v = {(0, mask_of((1, 2)), (1, 0)): ONE}
    bad_eta = {(0, mask, (1, 0)): ONE}
    for action in (vm.lambda_action, vm.dual_lambda_action):
        with pytest.raises(ValueError, match=f"generator mask {mask} is "):
            action(mask, v, wt)
        with pytest.raises(ValueError, match=f"eta mask {mask} is "):
            action(3, bad_eta, wt)
