"""Diagram canonical keys against an independent graph-isomorphism oracle.

Each diagram is rebuilt as a typed multigraph straight from its skeleton:
one root per tensor slot (labelled by slot number), one node per vertex,
one node per contracted pair carrying its Q/Q_tilde orientation, and one
leaf node per other child.  Equal canonical keys must mean isomorphic
graphs and distinct keys non-isomorphic ones.
"""

from collections import defaultdict

import networkx as nx
from networkx.algorithms.isomorphism import (
    categorical_multiedge_match, categorical_node_match,
)

from sthirring.deformation import (
    _diagram_for_matching, bullet_cross, gamma_Q, term_pairings,
)
from sthirring.diagrams import canonical_key
from sthirring.perturbation import COSPINOR, SPINOR, expand

NODE_MATCH = categorical_node_match("label", None)
EDGE_MATCH = categorical_multiedge_match("label", None)


def _graph(diag):
    g = nx.MultiDiGraph()
    pair_points = {}

    def node(label):
        n = len(g)
        g.add_node(n, label=label)
        return n

    def visit(children, here):
        for ch in children:
            if ch[0] == "conv":
                v = node("vertex")
                g.add_edge(here, v, label=ch[1])
                visit(ch[2], v)
            elif ch[0] == "pair":
                if ch[1] not in pair_points:
                    pair_points[ch[1]] = node(("pair", ch[3]))
                g.add_edge(here, pair_points[ch[1]], label=ch[2])
            else:
                g.add_edge(here, node(ch), label="child")

    for s, body in enumerate(diag.slots):
        visit(body, node(("root", s)))
    return g


def _invariant(g):
    """Isomorphism invariant: each node's label with its in/out edge labels."""
    return tuple(sorted(
        (repr(g.nodes[n]["label"]),
         tuple(sorted(repr(lab) for _, _, lab in g.in_edges(n, data="label"))),
         tuple(sorted(repr(lab) for _, _, lab in g.out_edges(n, data="label"))))
        for n in g))


def _oracle_inputs():
    """Every raw contraction outcome of F_0..F_3 on both branches, and the
    two-slot cross contractions of the psi-psibar two-point function
    through order 2."""
    series = expand(3)
    out = []
    for branch in (SPINOR, COSPINOR):
        for k in range(4):
            for t in series.coefficient(k, branch):
                template, leaves, matchings = term_pairings(t)
                out += [_diagram_for_matching(t, template, leaves, m)
                        for m in matchings]
    ga = {k: gamma_Q(series.coefficient(k, SPINOR)) for k in range(3)}
    gb = {k: gamma_Q(series.coefficient(k, COSPINOR)) for k in range(3)}
    for k in range(3):
        for k1 in range(k + 1):
            for da in ga[k1]:
                for db in gb[k - k1]:
                    out += bullet_cross(da, db)
    return out


def test_diagram_keys_match_isomorphism_oracle():
    diagrams = _oracle_inputs()
    classes = defaultdict(list)
    for d in diagrams:
        classes[canonical_key(d)].append(_graph(d))
    assert len(diagrams) == 1944 and len(classes) == 424

    # equal key => isomorphic
    for graphs in classes.values():
        for g in graphs[1:]:
            assert nx.is_isomorphic(graphs[0], g, node_match=NODE_MATCH,
                                    edge_match=EDGE_MATCH)

    # isomorphic => equal key: compare class representatives that share
    # the invariant (a differing invariant already rules isomorphism out)
    buckets = defaultdict(list)
    for graphs in classes.values():
        buckets[_invariant(graphs[0])].append(graphs[0])
    for reps in buckets.values():
        for i, a in enumerate(reps):
            for b in reps[:i]:
                assert not nx.is_isomorphic(a, b, node_match=NODE_MATCH,
                                            edge_match=EDGE_MATCH)
