from fractions import Fraction

import pytest

from k4verma import conformal as cf
from k4verma.exact import scal
from k4verma.grassmann import MASK_ALL, mask_of


def lb(a, b):
    """[a lambda b] of two single basis fields, read from gen_bracket."""
    (ka, im), = a
    (kb, jm), = b
    return {n: {g: scal(c) for g, c in items}
            for n, items in cf.gen_bracket(ka, im, kb, jm)}


def xi(indices, dpow=0):
    """The field pd^dpow xi_{indices}, indices a tuple or a mask."""
    m = indices if isinstance(indices, int) else mask_of(indices)
    return {(dpow, m): scal(1)}


def test_bracket_of_vacuum_field():
    # [xi_() lambda xi_()] = -2 pd xi_() - 4 lambda xi_()
    out = lb(xi(()), xi(()))
    assert out == {0: {(1, 0): scal(-2)}, 1: {(0, 0): scal(-4)}}


def test_bracket_odd_selfpair():
    assert lb(xi((1,)), xi((1,))) == {0: {(0, 0): scal(-1)}}


def test_bracket_two_singletons():
    out = lb(xi((1,)), xi((2,)))
    m12 = mask_of((1, 2))
    assert out == {0: {(1, m12): scal(-1)}, 1: {(0, m12): scal(-2)}}


def test_bracket_pair_overlap():
    assert lb(xi((1, 2)), xi((1, 3))) == {0: {(0, mask_of((2, 3))): scal(1)}}


def test_bracket_top_with_vacuum():
    out = lb(xi((1, 2, 3, 4)), xi(()))
    assert out == {0: {(1, MASK_ALL): scal(2)}}
    assert lb(xi((1, 2, 3, 4)), xi((1, 2, 3, 4))) == {}
    assert lb(xi((1, 2)), xi((3, 4))) == {}


def test_pd_rules_explicit():
    base = lb(xi((1,)), xi((2,)))
    left = lb(xi((1,), dpow=1), xi((2,)))
    # -lambda * base
    assert left == {n + 1: {g: -c for g, c in e.items()} for n, e in base.items()}
    right = lb(xi((1,)), xi((2,), dpow=1))
    expect = {}
    for n, e in base.items():
        for g, c in e.items():
            expect.setdefault(n + 1, {})[g] = expect.get(n + 1, {}).get(g, scal(0)) + c
            k, m = g
            expect.setdefault(n, {})[(k + 1, m)] = (
                expect.get(n, {}).get((k + 1, m), scal(0)) + c)
    expect = {n: {g: c for g, c in e.items() if not c.is_zero()}
              for n, e in expect.items()}
    assert right == {n: e for n, e in expect.items() if e}


def test_lambda_degree_at_most_one_on_fields():
    # gen_bracket keeps no empty lambda power
    for im in range(16):
        for jm in range(16):
            assert max(lb(xi(im), xi(jm)), default=-1) <= 1


def test_axioms_small_sweep():
    rep = cf.check_conformal_axioms(0)
    assert rep.ok
    assert rep.pairs_checked == 16 * 16
    assert rep.triples_checked == 16 ** 3


def _exact(poly):
    return {n: {g: scal(c) for g, c in e.items()} for n, e in poly.items()}


def test_jacobi_defect_detects_corruption(flipped_xi1_xi2):
    # negative control: [xi_1 lambda xi_2] changes sign; the flip carries
    # through every pd power, so sesquilinearity still holds on the pair,
    # but skew-symmetry and Jacobi break, and the sweep names the pair.
    # The defects are pinned: skew adds the flipped bracket to itself
    xi1, xi2 = (0, mask_of((1,))), (0, mask_of((2,)))
    flipped = lb(xi((1,)), xi((2,)))
    assert flipped == _exact({0: {(1, 3): 1}, 1: {(0, 3): 2}})
    assert cf.skew_defect(xi1, xi2) == _exact({0: {(1, 3): 2}, 1: {(0, 3): 4}})
    assert cf.skew_defect(xi1, xi2) == {
        n: {g: c + c for g, c in e.items()} for n, e in flipped.items()}
    assert cf.jacobi_defect(xi1, xi1, xi2) == _exact(
        {(0, 0): {(1, 2): -4}, (1, 0): {(0, 2): -6}, (0, 1): {(0, 2): -6}})
    d1, d2 = cf.sesquilinearity_defect(xi1, xi2)
    assert cf.poly_is_zero(d1) and cf.poly_is_zero(d2)
    rep = cf.check_conformal_axioms(0)
    assert ("skew", xi1, xi2) in rep.failures
    assert {f[0] for f in rep.failures} == {"skew", "jacobi"}


def test_sesquilinearity_defect_detects_a_negated_pd_bracket(
        fresh_solver_caches, monkeypatch):
    # negative control: [pd xi_1 lambda xi_2] alone changes sign, so
    # -lambda [xi_1 lambda xi_2] no longer matches it; the first half of
    # the defect is twice the negated value, and the sweep names exactly
    # the two pairs whose defects read that entry
    base = cf.gen_bracket

    def negated(ka, im, kb, jm):
        frozen = base(ka, im, kb, jm)
        if (ka, im, kb, jm) != (1, 1, 0, 2):
            return frozen
        return tuple((n, tuple((g, -c) for g, c in items))
                     for n, items in frozen)

    monkeypatch.setattr(cf, "gen_bracket", negated)
    xi1, xi2 = (0, mask_of((1,))), (0, mask_of((2,)))
    assert cf.sesquilinearity_defect(xi1, xi2) == (
        _exact({1: {(1, 3): -2}, 2: {(0, 3): -4}}), {})
    failing = [f[1:] for f in cf.check_conformal_axioms(1).failures
               if f[0] == "sesquilinearity"]
    assert failing == [(xi1, xi2), ((1, xi1[1]), xi2)]


def test_derived_membership():
    assert cf.in_derived(xi((1, 2, 3, 4), dpow=1))
    assert not cf.in_derived(xi((1, 2, 3, 4)))
    assert cf.in_derived(xi((1, 2))) and cf.in_derived(xi(()))


def test_derived_closure():
    assert cf.check_derived_closure(max_dpow=2) == []


def test_derived_closure_names_the_pairs_that_leave_k4_prime(
        bare_xi1234_in_xi1_xi234):
    # negative control: the bare xi_1234 survives every pd power on either
    # side, so exactly the pairs (pd^ka xi_1, pd^kb xi_234) fail, in order
    assert cf.check_derived_closure(max_dpow=2) == [
        ((ka, 1), (kb, 14)) for ka in range(3) for kb in range(3)]


def test_skew_and_sesqui_on_full_basis_pairs():
    gens = cf.k4_basis(2)
    for a in gens:
        for b in gens:
            assert cf.poly_is_zero(cf.skew_defect(a, b)), (a, b)
