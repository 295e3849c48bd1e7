import json
from fractions import Fraction

import pytest

from k4verma import annihilation as an
from k4verma import cli
from k4verma import morphisms as mo
from k4verma.exact import ONE, ZERO, scal
from k4verma.grassmann import mask_of
from k4verma.verma import eta_mul, act
from k4verma.weights import weight

F = Fraction


def test_source_weights_frozen():
    assert mo.source_weight("1a", 0, 0) == weight(1, 1, -1, 0)
    assert mo.source_weight("1b", 2, 1) == weight(1, 2, F(1, 2), F(-5, 2))
    assert mo.source_weight("2a", 0, 0) == weight(0, 2, -1, -1)
    assert mo.source_weight("2c", 2, 0) == weight(0, 0, 1, -1)
    assert mo.source_weight("3a", 1, 0) == weight(0, 1, F(-1, 2), F(-1, 2))
    assert mo.source_weight("3b", 0, 1) == weight(1, 0, F(-1, 2), F(1, 2))


def test_source_shifts_by_the_degree_in_t():
    for label in mo.FAMILIES:
        m, n = {"3a": (1, 0), "3b": (0, 1)}.get(label, (2, 2))
        if not mo.FAMILIES[label].in_range(m, n):
            m, n = (2, 0) if label in ("2b", "2c") else (0, 2)
        phi = mo.morphism_from_family(label, m, n)
        assert phi.source.mu_t == phi.target.mu_t - scal(phi.deg)
        assert phi.source.mu_C == phi.target.mu_C


def test_defining_property_and_linearity():
    phi = mo.morphism_from_family("1d", 1, 2)
    gen = {(0, 0, (phi.source.m, phi.source.n)): ONE}
    assert mo.evaluate(phi, gen) == phi.image_of_hwv
    assert mo.evaluate(phi, eta_mul(1, gen)) == eta_mul(1, phi.image_of_hwv)


def test_evaluate_commutes_with_the_action():
    phi = mo.morphism_from_family("1b", 2, 1)
    v = {(0, mask_of((2,)), (1, 1)): ONE, (1, 0, (0, 1)): scal(2, 1)}
    for key in [(0, 1), (1, 2), (0, 7), (1, 0)]:   # xi_1, t xi_2, xi_123, t
        lhs = act(key, mo.evaluate(phi, v), phi.target)
        rhs = mo.evaluate(phi, act(key, v, phi.source))
        assert lhs == rhs, key


def test_evaluate_rejects_foreign_monomials():
    phi = mo.morphism_from_family("1a", 0, 0)   # source labels (1, 1)
    with pytest.raises(ValueError):
        mo.evaluate(phi, {(0, 0, (2, 0)): ONE})


def test_compose_requires_a_chain():
    phi1 = mo.morphism_from_family("1a", 0, 0)
    phi2 = mo.morphism_from_family("1b", 1, 0)
    with pytest.raises(ValueError):
        mo.compose_is_zero(phi2, phi1)


def test_all_two_paths_vanish_in_the_small_box():
    g = mo.build_complex_graph(2)
    rep = mo.check_two_paths(g)
    assert rep.pairs_checked == len(list(mo.two_paths(g))) > 0
    assert rep.ok and rep.failures == []


def test_duality_weight_formula():
    assert mo.duality_weight(weight(0, 0, 2, 0)) == weight(0, 0, 0, 0)
    for n in range(4):
        left = weight(0, n, 1 - F(n, 2), -1 - F(n, 2))    # 2a weights
        right = weight(0, n, 1 + F(n, 2), 1 + F(n, 2))    # 1d formula at (0,n)
        assert mo.duality_weight(left) == right
        assert mo.duality_weight(right) == left


def test_duality_and_source_keep_the_imaginary_part_of_mu(monkeypatch):
    # at the referee tests' Gaussian mu, which no sweep uses: both weights
    # are computed, printed and sorted with the full scalar
    gauss_mu = (scal(F(7, 3), F(1, 2)), scal(F(-4, 5), 2))
    wt = weight(1, 2, *gauss_mu)
    dual = mo.duality_weight(wt)
    assert dual == weight(1, 2, scal(F(-1, 3), F(-1, 2)), scal(F(4, 5), -2))
    assert mo.duality_weight(dual) == wt
    fam = mo.FAMILIES["1b"]
    monkeypatch.setitem(mo.FAMILIES, "1b",
                        fam._replace(mu=lambda m, n: gauss_mu))
    assert mo.source_weight("1b", 2, 1) == \
        weight(1, 2, gauss_mu[0] - 1, gauss_mu[1])
    assert mo._wt_json(wt) == [1, 2, "7/3+1/2i", "-4/5+2i"]
    assert cli._wt_payload(wt) == {"m": 1, "n": 2, "mu_t": "7/3+1/2i",
                                   "mu_C": "-4/5+2i"}
    real = weight(1, 2, F(7, 3), F(-4, 5))
    assert sorted([wt, real], key=mo._node_sort_key) == [real, wt]


def test_supertraces():
    assert mo.supertrace_ad({(1, 0): ONE}) == scal(2)
    assert mo.supertrace_ad({an.CKEY: ONE}) == ZERO


def test_graph_is_duality_symmetric():
    for box in (1, 2, 3):
        g = mo.build_complex_graph(box)
        assert mo.duality_is_involution(g), box


def test_graph_contents():
    g = mo.build_complex_graph(3)
    nodes = set(g.nodes)
    assert weight(0, 0, 0, 0) in nodes
    # the 1a chain into the trivial weight
    assert any(e.label == "1a" and e.target == weight(0, 0, 0, 0)
               and e.source == weight(1, 1, -1, 0) for e in g.edges)
    # no self-loops anywhere
    assert all(e.source != e.target for e in g.edges)
    # each edge endpoint is a node
    assert all(e.source in nodes and e.target in nodes for e in g.edges)


def test_exports():
    g = mo.build_complex_graph(2)
    doc = json.loads(mo.graph_to_json(g))
    assert doc["duality_involution_ok"] is True
    assert doc["max_mn"] == 2
    assert [0, 0, "0", "0"] in doc["nodes"]
    assert all(set(e) == {"from", "to", "degree", "label", "params"}
               for e in doc["edges"])
    some = next(e for e in doc["edges"] if e["label"] == "1b")
    assert isinstance(some["from"][2], str)   # rationals travel as "p/q"
    dot = mo.graph_to_dot(g)
    assert dot.startswith("digraph") and "->" in dot


def test_check_two_paths_names_each_failing_pair(monkeypatch):
    g = mo.build_complex_graph(2)
    monkeypatch.setattr(mo, "compose_is_zero", lambda phi2, phi1: False)
    rep = mo.check_two_paths(g)
    assert not rep.ok
    assert rep.failures == [(a.label, a.params, b.label, b.params)
                            for a, b in mo.two_paths(g)]
    assert len(rep.failures) == rep.pairs_checked
