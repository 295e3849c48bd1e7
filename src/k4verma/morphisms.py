"""Module maps between the induced modules, and the bilateral complexes.

A singular vector m of highest weight mu sitting inside Ind(F(nu))
induces the unique module map M(mu) -> M(nu) sending the generator to
m.  Chaining the classified vectors gives a directed graph on weights;
every two-step composition vanishes, and the graph is symmetric under
the duality mu -> (m, n, 2 - mu_t, -mu_C).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import annihilation as an
from .conformal import AxiomReport
from .exact import ExactScalar, ONE, ZERO, axpy, scal
from .grassmann import mask_of
from .solver import FAMILIES, build_theorem_vector, table_weights, \
    verify_vector
from .verma import VVec, act_elem, umult
from .weights import SL2_IN_XI, Weight, lowering_word, weight

# h_x/h_y label shift carried by each odd generator
_W_SHIFT = {"11": (1, 1), "12": (1, -1), "21": (-1, 1), "22": (-1, -1)}

# the lowering operators f_x and f_y as annihilation-algebra elements
_F_X, _F_Y = ({(0, mask_of(pair)): c for pair, c in SL2_IN_XI[op].items()}
              for op in ("f_x", "f_y"))


def source_weight(label: str, m: int, n: int) -> Weight:
    """Highest weight of the singular vector of a family at (m, n)."""
    fam = FAMILIES[label]
    target = fam.weight_at(m, n)
    dx = sum(_W_SHIFT[w][0] for w in fam.terms[0][1])
    dy = sum(_W_SHIFT[w][1] for w in fam.terms[0][1])
    return weight(m + dx, n + dy, target.mu_t - fam.deg, target.mu_C)


class VermaMorphism(NamedTuple):
    source: Weight
    target: Weight
    image_of_hwv: VVec
    deg: int


def morphism_from_family(label: str, m: int, n: int) -> VermaMorphism:
    target, vec = build_theorem_vector(label, m, n)
    if not verify_vector(vec, target).ok:
        raise RuntimeError(f"classified vector {label} fails verification")
    return VermaMorphism(source_weight(label, m, n), target, vec,
                         FAMILIES[label].deg)


def evaluate(phi: VermaMorphism, v: VVec) -> VVec:
    """Image of a source-module vector under the induced map."""
    src, tgt = phi.source, phi.target
    out: VVec = {}
    for (k, lmask, mon), c in v.items():
        a, b = mon
        if not (0 <= a <= src.m and 0 <= b <= src.n):
            raise ValueError(f"monomial {mon} does not live in the source")
        coeff, (px, py) = lowering_word(mon, src)
        img = phi.image_of_hwv
        for _ in range(py):
            img = act_elem(_F_Y, img, tgt)
        for _ in range(px):
            img = act_elem(_F_X, img, tgt)
        axpy(out, c * coeff, umult(k, lmask, img).items())
    return out


def compose_is_zero(phi2: VermaMorphism, phi1: VermaMorphism) -> bool:
    """Whether phi2 after phi1 kills the generator (hence everything)."""
    if phi1.target != phi2.source:
        raise ValueError("morphisms do not chain: target != source")
    return evaluate(phi2, phi1.image_of_hwv) == {}


# ---------------------------------------------------------------------------
# conformal duality
# ---------------------------------------------------------------------------


def duality_weight(wt: Weight) -> Weight:
    return weight(wt.m, wt.n, 2 - wt.mu_t, -wt.mu_C)


def supertrace_ad(x: an.Element) -> ExactScalar:
    """Supertrace of ad(x) restricted to the five negative-degree slots."""
    tr = ZERO
    y = an.drop_central(an.bracket(x, dict(an.THETA)))
    tr = tr + y.get((0, 0), ZERO) * scal(-2)   # Theta = -1/2 xi_empty
    for i in range(1, 5):
        key = (0, 1 << (i - 1))
        z = an.drop_central(an.bracket(x, {key: ONE}))
        tr = tr - z.get(key, ZERO)
    return tr


# ---------------------------------------------------------------------------
# the weight graph
# ---------------------------------------------------------------------------


class Edge(NamedTuple):
    source: Weight
    target: Weight
    label: str
    deg: int
    params: tuple[int, int]


class ComplexGraph(NamedTuple):
    max_mn: int
    nodes: tuple[Weight, ...]
    edges: tuple[Edge, ...]


def _node_sort_key(wt: Weight):
    return (wt.m, wt.n, wt.mu_t.re, wt.mu_t.im, wt.mu_C.re, wt.mu_C.im)


def build_complex_graph(max_mn: int) -> ComplexGraph:
    """All classified morphisms whose endpoints stay inside the box.

    Nodes are the degree-1 formula weights over the (m, n) box; the
    degree-2 and degree-3 targets coincide with boundary values of
    those formulas, so no further nodes arise.  Edges are the members
    of `table_weights(max_mn)`.
    """
    box = range(max_mn + 1)
    nodes = {fam.weight_at(m, n) for fam in FAMILIES.values() if fam.deg == 1
             for m in box for n in box}
    edges = []
    for tgt, instances in table_weights(max_mn).items():
        for label, m, n in instances:
            src = source_weight(label, m, n)
            if src in nodes and tgt in nodes:
                edges.append(Edge(src, tgt, label, FAMILIES[label].deg,
                                  (m, n)))
    edges.sort(key=lambda e: (e.label, e.params))
    return ComplexGraph(max_mn, tuple(sorted(nodes, key=_node_sort_key)),
                        tuple(edges))


def duality_is_involution(graph: ComplexGraph) -> bool:
    nodes = set(graph.nodes)
    for wt in graph.nodes:
        im = duality_weight(wt)
        if im not in nodes or duality_weight(im) != wt:
            return False
    rev = {(duality_weight(e.target), duality_weight(e.source), e.deg)
           for e in graph.edges}
    fwd = {(e.source, e.target, e.deg) for e in graph.edges}
    return rev == fwd


def two_paths(graph: ComplexGraph):
    """All chained edge pairs (first, second)."""
    by_source: dict[Weight, list[Edge]] = {}
    for e in graph.edges:
        by_source.setdefault(e.source, []).append(e)
    for first in graph.edges:
        for second in by_source.get(first.target, ()):
            yield first, second


def check_two_paths(graph: ComplexGraph) -> AxiomReport:
    """Compose along every 2-path; pairs_checked counts the paths, and
    failures are the (label, params, label, params) of each pair that
    does not vanish.  Each edge's morphism is built once."""
    built: dict[Edge, VermaMorphism] = {}
    rep = AxiomReport()
    for first, second in two_paths(graph):
        for e in (second, first):
            if e not in built:
                built[e] = morphism_from_family(e.label, *e.params)
        rep.pairs_checked += 1
        if not compose_is_zero(built[second], built[first]):
            rep.failures.append((first.label, first.params,
                                 second.label, second.params))
    return rep


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _wt_json(wt: Weight):
    return [wt.m, wt.n, str(wt.mu_t), str(wt.mu_C)]


def graph_to_json(graph: ComplexGraph) -> str:
    doc = {
        "max_mn": graph.max_mn,
        "nodes": [_wt_json(w) for w in graph.nodes],
        "edges": [{"from": _wt_json(e.source), "to": _wt_json(e.target),
                   "degree": e.deg, "label": e.label,
                   "params": list(e.params)} for e in graph.edges],
        "duality_involution_ok": duality_is_involution(graph),
        "note": ("graph synthesized from the classification tables; "
                 "node = module weight, edge = induced morphism"),
    }
    return json.dumps(doc, indent=2)


def graph_to_dot(graph: ComplexGraph) -> str:
    def nid(wt: Weight) -> str:
        return f'"M{wt}"'

    lines = ["digraph complexes {"]
    for w in graph.nodes:
        lines.append(f"  {nid(w)};")
    for e in graph.edges:
        lines.append(f'  {nid(e.source)} -> {nid(e.target)} '
                     f'[label="{e.label} (d={e.deg})"];')
    lines.append("}")
    return "\n".join(lines)
