import pytest

from k4verma import annihilation as an
from k4verma import coadjoint as co
from k4verma.exact import ONE, acc, axpy, scal


def test_theta_star_pairs_to_one_against_theta():
    # Theta = -1/2 xi_empty and Theta* = -2 xi_empty*, so the pairing is 1
    assert co.THETA_STAR == {(0, 0): scal(-2)}
    coeff_of_xi_empty_in_theta = an.THETA[(0, 0)]
    assert (co.THETA_STAR[(0, 0)] * coeff_of_xi_empty_in_theta) == ONE


def test_theta_lowers_to_the_next_dual_line():
    got = co.coadjoint_act(dict(an.THETA), dict(co.THETA_STAR))
    assert set(got) == {(1, 0)} and not got[(1, 0)].is_zero()


def test_action_shifts_the_support_grade():
    f = {(1, 3): ONE}                       # grade 2 + 2 - 2 = 2
    x = {(0, 7): ONE}                       # grade 1
    out = co.coadjoint_act(x, f)
    assert out
    assert {an.grade_key(k) for k in out} == {1}


def test_module_axiom_on_samples():
    # [x, y].f == x.(y.f) - (-1)^{p(x)p(y)} y.(x.f)
    triples = [
        ({(0, 1): ONE}, {(0, 2): ONE}, {(0, 3): ONE}),
        ({(1, 0): ONE}, {(0, 5): ONE}, {(1, 1): ONE}),
        (dict(an.THETA), {(0, 15): ONE}, {(1, 12): ONE}),
        ({(0, 6): ONE}, dict(an.THETA), {(2, 0): ONE}),
        ({(0, 7): ONE}, {(0, 14): ONE}, {(1, 5): ONE}),
    ]
    for x, y, f in triples:
        f = dict(f)
        lhs = {}
        for k, c in an.drop_central(an.bracket(x, y)).items():
            axpy(lhs, ONE, co.coadjoint_act({k: c}, f).items())
        both_odd = (all(an.parity(k) for k in x)
                    and all(an.parity(k) for k in y))
        rhs = co.coadjoint_act(x, co.coadjoint_act(y, f))
        axpy(rhs, scal(1 if both_odd else -1),
             co.coadjoint_act(y, co.coadjoint_act(x, f)).items())
        assert lhs == rhs, (x, y)


def test_phi_rejects_nontrivial_sl2_monomials():
    with pytest.raises(ValueError):
        co.phi_image({(0, 1, (1, 0)): ONE})


def test_phi_is_bijective_past_degree_sixteen():
    assert all(co.check_phi_iso(18).bijective)


def _brute_force_act(x, f):
    """The pairing action as first written: the full bracket of each key of
    x with every basis key of the target degree, one coefficient read."""
    out = {}
    for xk, xc in x.items():
        if xk == an.CKEY:
            continue
        for fk, fc in f.items():
            gtarget = an.grade_key(fk) - an.grade_key(xk)
            if gtarget < -2:
                continue
            sign = scal(1 if an.parity(xk) and an.parity(fk) else -1)
            for yk in an.basis_of_degree(gtarget):
                c = an.bracket({xk: xc}, {yk: ONE}).get(fk)
                if c is not None:
                    acc(out, yk, sign * fc * c)
    return out


def test_pairing_table_matches_the_brute_force_action():
    xs = [dict(an.THETA), *({(0, 1 << (j - 1)): ONE} for j in (1, 2, 3, 4)),
          *co.EQUIVARIANCE_GENS]
    fkeys = [fk for d in range(-2, 7) for fk in an.basis_of_degree(d)]
    for x in xs:
        for fk in fkeys:
            f = {fk: scal(2, -1)}
            assert co.coadjoint_act(x, f) == _brute_force_act(x, f), (x, fk)


def test_iterated_action_names_every_failing_key(fresh_solver_caches,
                                                 monkeypatch):
    # without the pairing entries of xi_2, Theta^s eta_I misses its dual
    # line wherever 2 is in I: all 32 keys (s, I), in sweep order; the
    # report names only the first three
    pairing = co._pairing
    monkeypatch.setattr(co, "_pairing", lambda xk, fk: () if xk == (0, 2)
                        else pairing(xk, fk))
    assert co.iterated_action_failures(3) == \
        [(s, mask) for mask in range(16) if mask & 2 for s in range(4)]
