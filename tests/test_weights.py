from fractions import Fraction

import pytest

from k4verma import annihilation as an
from k4verma import weights as wt
from k4verma.exact import ONE, axpy, scal, sparse_nullspace
from k4verma.grassmann import mask_of


def W(m, n, t="5/2", c="-3"):
    return wt.weight(m, n, scal(t), scal(c))


def hwv(w):
    return {(w.m, w.n): ONE}


def e_pm(sign):
    """e1 = e_x + e_y (sign 1) or e2 = e_x - e_y (sign -1), from the sl2
    operators themselves."""
    def op(w, vec):
        out = wt.apply_sl2("e_x", w, vec)
        axpy(out, scal(sign), wt.apply_sl2("e_y", w, vec).items())
        return out
    return op


E1, E2 = e_pm(1), e_pm(-1)


# the referee tests' Gaussian mu, which no sweep uses
GAUSS_MU = (scal(Fraction(7, 3), Fraction(1, 2)), scal(Fraction(-4, 5), 2))


def act_g0(key, w, vec):
    """act_g0 on a vector: the frozen image of each monomial, summed."""
    out = {}
    for mon, c in vec.items():
        axpy(out, c, wt.act_g0(key, w, mon))
    return out


def test_str_keeps_the_imaginary_part_of_mu():
    # error messages name weights by str: a Gaussian mu must not print as
    # its real part
    real = wt.weight(1, 1, Fraction(7, 3), Fraction(-4, 5))
    gauss = wt.weight(1, 1, *GAUSS_MU)
    assert str(real) == "(1,1,7/3,-4/5)"
    assert str(gauss) == "(1,1,7/3+1/2i,-4/5+2i)"
    assert str(gauss) != str(real) and gauss != real


def test_negative_sl2_labels_are_rejected():
    # weight() is where every Weight in the engine is checked
    for m, n in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError,
                           match="^sl2 labels must be nonnegative integers$"):
            wt.weight(m, n, 0, 0)


def test_xi_pair_decompositions_frozen():
    ih = scal(0, "1/2")
    h = scal("1/2")
    expect = {
        (1, 2): [(ih, "h_x"), (ih, "h_y")],
        (3, 4): [(-ih, "h_x"), (ih, "h_y")],
        (2, 3): [(-ih, "e_x"), (-ih, "f_x"), (-ih, "e_y"), (-ih, "f_y")],
        (1, 4): [(ih, "e_x"), (ih, "f_x"), (-ih, "e_y"), (-ih, "f_y")],
        (1, 3): [(-h, "e_x"), (h, "f_x"), (-h, "e_y"), (h, "f_y")],
        (2, 4): [(-h, "e_x"), (h, "f_x"), (h, "e_y"), (-h, "f_y")],
    }
    for pair, combo in expect.items():
        assert wt.XI_COMBO[mask_of(pair)] == combo


def test_ex_on_small_module():
    w = W(1, 1)
    assert wt.apply_sl2("e_x", w, {(0, 1): ONE}) == {(1, 1): ONE}
    assert wt.apply_sl2("e_x", w, {(1, 1): ONE}) == {}
    assert wt.apply_sl2("f_y", w, {(1, 1): ONE}) == {(1, 0): ONE}
    with pytest.raises(ValueError, match="unknown sl2 operator 'g_x'"):
        wt.apply_sl2("g_x", w, {(0, 1): ONE})


def test_xi12_scales_highest_vector():
    for m, n in [(0, 0), (1, 0), (2, 3)]:
        w = W(m, n)
        out = act_g0((0, mask_of((1, 2))), w, hwv(w))
        expect = scal(0, Fraction(m + n, 2))
        assert out == ({(m, n): expect} if not expect.is_zero() else {})


def test_t_and_C_act_by_scalars():
    w = W(1, 2, t="7/3", c="1/5")
    v = {(0, 1): scal(2), (1, 2): scal(0, 1)}
    assert act_g0((1, 0), w, v) == {k: c * scal("7/3") for k, c in v.items()}
    assert act_g0(an.CKEY, w, v) == {k: c * scal("1/5") for k, c in v.items()}
    with pytest.raises(ValueError):
        act_g0((0, 0), w, v)


def test_act_g0_on_one_monomial_is_its_sl2_combination():
    # referee of the frozen per-monomial image: every degree-zero key on
    # every monomial of F(m, n), m, n <= 3, at a Gaussian mu and at mu = 0
    keys = an.basis_of_degree(0) + [an.CKEY]
    for m in range(4):
        for n in range(4):
            w = wt.weight(m, n, *GAUSS_MU)
            zero = wt.weight(m, n, 0, 0)
            for mon in w.keys():
                for key in keys:
                    img = wt.act_g0(key, w, mon)
                    assert isinstance(img, tuple)
                    if key[0] == 0:
                        expect = {}
                        for c, op in wt.XI_COMBO[key[1]]:
                            axpy(expect, c,
                                 wt.apply_sl2(op, w, {mon: ONE}).items())
                        assert dict(img) == expect, (key, mon)
                        assert wt.act_g0(key, zero, mon) == img
                    else:
                        mu = w.mu_C if key == an.CKEY else w.mu_t
                        assert img == ((mon, mu),), (key, mon)
                        assert wt.act_g0(key, zero, mon) == ()


def _commutator(u, v, w, vec):
    return _sub(act_g0(u, w, act_g0(v, w, vec)),
                act_g0(v, w, act_g0(u, w, vec)))


def _sub(a, b):
    out = dict(a)
    axpy(out, -ONE, b.items())
    return out


def test_sl2_relations_up_to_44():
    rel = [("h_x", "e_x", {"e_x": 2}), ("h_x", "f_x", {"f_x": -2}),
           ("e_x", "f_x", {"h_x": 1}), ("h_y", "e_y", {"e_y": 2}),
           ("h_y", "f_y", {"f_y": -2}), ("e_y", "f_y", {"h_y": 1}),
           ("e_x", "e_y", {}), ("e_x", "f_y", {}), ("h_x", "h_y", {}),
           ("f_x", "e_y", {}), ("h_x", "e_y", {}), ("e_x", "h_y", {})]
    for m in range(5):
        for n in range(5):
            w = W(m, n)
            for key in w.keys():
                vec = {key: ONE}
                for op1, op2, out in rel:
                    lhs = _sub(wt.apply_sl2(op1, w, wt.apply_sl2(op2, w, vec)),
                               wt.apply_sl2(op2, w, wt.apply_sl2(op1, w, vec)))
                    rhs = {}
                    for op, k in out.items():
                        axpy(rhs, scal(k), wt.apply_sl2(op, w, vec).items())
                    assert lhs == rhs


def test_g0_action_matches_algebra_bracket():
    # the module axiom for the even part, checked against the closed-form
    # bracket of the annihilation algebra
    g0keys = [(1, 0)] + [(0, mask_of(p)) for p in wt.XI_COLUMNS] + [an.CKEY]
    for m, n in [(0, 0), (1, 1), (2, 1), (3, 3)]:
        w = W(m, n)
        for key in w.keys():
            vec = {key: ONE}
            for u in g0keys:
                for v in g0keys:
                    lhs = _commutator(u, v, w, vec)
                    rhs = {}
                    if u != an.CKEY and v != an.CKEY:
                        br = an.bracket({u: ONE}, {v: ONE})
                        for bk, bc in br.items():
                            axpy(rhs, bc, act_g0(bk, w, vec).items())
                    assert lhs == rhs, (u, v, key)


def test_highest_vector_is_the_whole_singular_space():
    for m in range(4):
        for n in range(4):
            w = W(m, n)
            keys = w.keys()
            col = {k: j for j, k in enumerate(keys)}
            by_target = {}
            for j, key in enumerate(keys):
                for opi, op in enumerate((E1, E2)):
                    img = op(w, {key: ONE})
                    for kk, c in img.items():
                        by_target.setdefault((opi, kk), {})[j] = c
            ker = sparse_nullspace(by_target.values(), len(keys))
            assert len(ker) == 1
            vec = {keys[j]: c for j, c in ker[0].items()}
            assert vec == hwv(w)
            assert E1(w, hwv(w)) == {} and E2(w, hwv(w)) == {}


def test_lowering_word_reproduces_monomials():
    w = W(2, 3)
    for key in w.keys():
        coeff, (px, py) = wt.lowering_word(key, w)
        vec = hwv(w)
        for _ in range(px):
            vec = wt.apply_sl2("f_x", w, vec)
        for _ in range(py):
            vec = wt.apply_sl2("f_y", w, vec)
        vec = {k: c * coeff for k, c in vec.items()}
        assert vec == {key: ONE}


def test_sl2_in_xi_table_matches_the_operators():
    # sum_pair SL2_IN_XI[op][pair] xi_pair, acted through act_g0, is op itself;
    # the solver's e1 and e2 rows are e_x + e_y and e_x - e_y
    from k4verma import solver as sv

    def combo_on(combo, w, vec):
        out = {}
        for c, pmask in combo:
            axpy(out, c, act_g0((0, pmask), w, vec).items())
        return out

    for m in range(4):
        for n in range(4):
            w = W(m, n)
            for mon in w.keys():
                vec = {mon: ONE}
                for op in wt.SL2_OPS:
                    combo = [(c, mask_of(pair))
                             for pair, c in wt.SL2_IN_XI[op].items()]
                    assert combo_on(combo, w, vec) == wt.apply_sl2(op, w, vec)
                for (tag, g), e in zip(sv._E_ROWS, (E1, E2)):
                    combo = [(c, pmask) for (_, pmask), c in g.items()]
                    assert combo_on(combo, w, vec) == e(w, vec), tag


def test_warm_solve_makes_no_sl2_calls(monkeypatch):
    # the image of a monomial under xi_ij is cached per (mask, m, n, monomial)
    from k4verma import solver as sv
    w = wt.weight(1, 0, scal("5/2"), scal("-1/2"))
    first = sv.solve(w, 2, dual=True)
    calls = []
    apply_sl2 = wt.apply_sl2

    def counted(*args):
        calls.append(args[0])
        return apply_sl2(*args)

    monkeypatch.setattr(wt, "apply_sl2", counted)
    # the dual route keeps one record per shape too, so the second weight
    # only combines that record's rows and makes no dual action calls
    dual = sv.dual_lambda_action
    dual_calls = []

    def dual_counted(*args):
        dual_calls.append(args[0])
        return dual(*args)

    monkeypatch.setattr(sv, "dual_lambda_action", dual_counted)
    again = sv.solve(wt.weight(1, 0, scal(3), scal(7)), 2, dual=True)
    assert dual_calls == []
    assert sv.solve(w, 2, dual=True) == first
    assert again.kernel_dim == 0 and calls == []
