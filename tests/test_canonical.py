"""Diagram canonical forms against two independent oracles.

Isomorphism: each diagram is rebuilt as a typed multigraph straight from
its skeleton: one root per tensor slot (labelled by slot number), one node
per vertex, one node per contracted pair carrying its Q/Q_tilde
orientation, and one leaf node per other child.  Equal canonical keys must
mean isomorphic graphs and distinct keys non-isomorphic ones.

Brute force: the memoized bottom-up layout search must pick exactly the
representative of the plain search it replaced, which recomputes every
subtree shape for every layout combination and serializes every candidate.
"""

import random
from collections import defaultdict
from fractions import Fraction
from itertools import groupby, permutations, product as iproduct

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import (
    categorical_multiedge_match, categorical_node_match,
)

from sthirring import diagrams
from sthirring.deformation import (
    _diagram_for_matching, bullet_cross, extract_counterterms, gamma_Q,
    term_pairings,
)
from sthirring.diagrams import DeformedSum, canonical_key, canonicalize
from sthirring.perturbation import COSPINOR, SPINOR, expand
from sthirring.properties import random_term

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


# --------------------------------------------------------------------------
# brute-force reference canonicalizer
# --------------------------------------------------------------------------

def _ref_shape(ch):
    if ch[0] == "pair":
        return f"x[{ch[2]},{ch[3]}]"
    if ch[0] == "conv":
        inner = ",".join(sorted(_ref_shape(k) for k in ch[2]))
        return f"T[{ch[1]}]({inner})"
    return repr(ch)


def _ref_tie_orders(items, shapes):
    order = sorted(range(len(items)), key=shapes.__getitem__)
    options = []
    for shape, run in groupby(order, key=shapes.__getitem__):
        run = [items[i] for i in run]
        options.append(list(permutations(run)) if len(run) > 1 and "x[" in shape
                       else [run])
    return [tuple(x for run in combo for x in run) for combo in iproduct(*options)]


def _ref_layouts(children):
    expanded = []
    for ch in children:
        if ch[0] == "conv":
            expanded.append([("conv", ch[1], lay) for lay in _ref_layouts(ch[2])])
        else:
            expanded.append([ch])
    out = []
    for kids in iproduct(*expanded):
        out.extend(_ref_tie_orders(kids, [_ref_shape(c) for c in kids]))
    return out


def _ref_serialize(slots, naming):
    tokens = []

    def emit(children):
        for ch in children:
            if ch[0] == "pair":
                naming.setdefault(ch[1], f"p{len(naming)}")
                tokens.append(f"x[{naming[ch[1]]},{ch[2]},{ch[3]}]")
            elif ch[0] == "conv":
                tokens.append(f"T[{ch[1]}](")
                emit(ch[2])
                tokens.append(")")
            else:
                tokens.append(repr(ch))
            tokens.append(",")

    for body in slots:
        emit(body)
        tokens.append(";")
    return "".join(tokens)


def _ref_canonical(diag):
    """(key, slots) of the minimal serialization over every layout."""
    best = None
    for slots in iproduct(*[_ref_layouts(body) for body in diag.slots]):
        naming = {}
        key = _ref_serialize(slots, naming)
        if best is None or key < best[0]:
            best = (key, slots, naming)
    key, slots, naming = best
    rank = {old: r for r, old in enumerate(naming)}
    return key, tuple(diagrams.rename_pair_ids(b, rank.__getitem__) for b in slots)


def _recorded_adds(monkeypatch, fn):
    """Every diagram handed to DeformedSum.add while fn runs."""
    seen = []
    real = DeformedSum.add

    def add(self, d):
        seen.append(d)
        real(self, d)

    with monkeypatch.context() as m:
        m.setattr(DeformedSum, "add", add)
        fn()
    return seen


def _residual_and_operator_inputs(monkeypatch):
    """The raw diagrams of H_1..H_3 and of their residuals."""
    series = expand(3)
    return _recorded_adds(monkeypatch, lambda: extract_counterterms(series, 3))


def _random_term_inputs(seeds=range(8), draws=4, per_term=200):
    """Raw contractions of properties.random_term draws (flat products of
    recursion monomials with bare monomials among them), at most per_term
    seeded matchings per term."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(draws):
            t = random_term(rng)
            template, leaves, matchings = term_pairings(t)
            matchings = list(matchings)
            if len(matchings) > per_term:
                matchings = rng.sample(matchings, per_term)
            out += [_diagram_for_matching(t, template, leaves, m)
                    for m in matchings]
    return out


def test_fast_canonicalizer_matches_brute_force(monkeypatch):
    inputs = (_oracle_inputs() + _residual_and_operator_inputs(monkeypatch)
              + _random_term_inputs())
    assert len(inputs) > 5000
    assert any(len(d.slots) == 2 for d in inputs)
    assert any(ch[0] == "argport" for d in inputs
               for ch, _ in diagrams.iter_children(d))
    want = [_ref_canonical(d) for d in inputs]
    # the search, not only the one-layout path, is exercised
    searched = [d for d in inputs if any(len(_ref_layouts(b)) > 1 for b in d.slots)]
    assert len(searched) > 1000

    # cold: every diagram starts from an empty layout memo
    for d, (key, slots) in zip(inputs, want):
        diagrams._layouts.cache_clear()
        assert canonicalize(d).slots == slots
        assert canonical_key(d) == key
    # warm: the memo carries subtrees over from earlier diagrams
    diagrams._layouts.cache_clear()
    for _ in range(2):
        for d, (key, slots) in zip(inputs, want):
            c = canonicalize(d)
            assert c.slots == slots and c.coeff == d.coeff
            assert canonical_key(d) == key
    assert diagrams._layouts.cache_info().hits > 0


def test_deformed_sum_orders_and_merges_by_key():
    """Keys are the canonical slots; the listed order is the key order."""
    inputs = _oracle_inputs()
    ds = DeformedSum(inputs)
    keys = [canonical_key(d) for d in ds]
    assert keys == sorted(set(canonical_key(d) for d in inputs))
    total = defaultdict(Fraction)
    for d in inputs:
        total[canonical_key(d)] += d.coeff
    assert {canonical_key(d): d.coeff for d in ds} == \
        {k: c for k, c in total.items() if c}


def test_budget_overflow_is_a_resource_error():
    from sthirring import canonical
    from sthirring.errors import UsageError
    assert canonical.within_budget(canonical._PERM_BUDGET) == canonical._PERM_BUDGET
    with pytest.raises(UsageError, match="permutation budget"):
        canonical.within_budget(canonical._PERM_BUDGET + 1)
