"""Diagram canonical forms against two independent oracles.

Isomorphism: each diagram is rebuilt as a typed multigraph straight from
its skeleton: one root per tensor slot (labelled by slot number), one node
per vertex, one node per contracted pair carrying its Q/Q_tilde
orientation, and one leaf node per other child.  Equal canonical keys must
mean isomorphic graphs and distinct keys non-isomorphic ones.

Brute force: the memoized bottom-up layout search must pick exactly the
representative of the plain search it replaced, which recomputes every
subtree shape for every layout combination and serializes every candidate:
on recorded inputs, on every orbit representative of Gamma_Q(F_4), where
tied layouts are common, and on drawn diagrams, where the form must also be
idempotent and blind to child order and pair names.
"""

import random
from collections import defaultdict
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st
from networkx.algorithms.isomorphism import (
    categorical_multiedge_match, categorical_node_match,
)

from sthirring import diagrams
from sthirring.deformation import extract_counterterms, gamma_Q
from sthirring.diagrams import DeformedSum, canonicalize
from sthirring.perturbation import COSPINOR, SPINOR, expand
from sthirring.properties import random_term
from sthirring.terms import GPSI, GPSIBAR, PHI, PHIBAR

from helpers import (
    all_contractions, bullet_cross, canonical_key, iter_children,
    ref_canonical, ref_gamma_Q, ref_layouts,
)

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
                out += all_contractions(t)
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
# the brute-force reference canonicalizer (`helpers.ref_canonical`)
# --------------------------------------------------------------------------

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
    """The raw diagrams of H_1..H_3 and of their residuals, and every raw
    contraction of the F_0..F_3 monomials they are built from (gamma_Q
    hands only one pairing per orbit to DeformedSum.add)."""
    series = expand(3)
    out = [d for branch in (SPINOR, COSPINOR) for k in range(4)
           for t in series.coefficient(k, branch) for d in all_contractions(t)]
    return out + _recorded_adds(monkeypatch,
                                lambda: extract_counterterms(series, 3))


def _random_term_inputs(seeds=range(8), draws=4, per_term=200):
    """Raw contractions of properties.random_term draws (flat products of
    recursion monomials with bare monomials among them), at most per_term
    seeded matchings per term."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(draws):
            raw = list(all_contractions(random_term(rng)))
            if len(raw) > per_term:
                raw = rng.sample(raw, per_term)
            out += raw
    return out


def test_fast_canonicalizer_matches_brute_force(monkeypatch):
    inputs = (_oracle_inputs() + _residual_and_operator_inputs(monkeypatch)
              + _random_term_inputs())
    assert len(inputs) > 5000
    assert any(len(d.slots) == 2 for d in inputs)
    assert any(ch[0] == "argport" for d in inputs
               for ch, _ in iter_children(d))
    want = [ref_canonical(d) for d in inputs]
    # the search, not only the one-layout path, is exercised
    searched = [d for d in inputs if any(len(ref_layouts(b)) > 1 for b in d.slots)]
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


def test_fast_canonicalizer_matches_brute_force_at_order_4(monkeypatch):
    """Every orbit representative of each spinor F_4 monomial, as the walk
    with one orbit walk per term adds them (gamma_Q, which walks each leaf
    census once, adds 2,496), a quarter of them with more than one
    layout, cold and warm."""
    f4 = expand(4).coefficient(4, SPINOR)
    inputs = _recorded_adds(monkeypatch, lambda: ref_gamma_Q(f4))
    assert len(inputs) == 8727
    want = [ref_canonical(d) for d in inputs]
    tied = 0
    for d, (key, slots) in zip(inputs, want):
        diagrams._layouts.cache_clear()
        assert canonicalize(d).slots == slots
        assert canonical_key(d) == key
        tied += len(diagrams._layouts(d.slots[0])[1]) > 1
    assert tied == 2290
    diagrams._layouts.cache_clear()
    for d, (key, slots) in zip(inputs, want):
        assert canonicalize(d).slots == slots
        assert canonical_key(d) == key
    assert diagrams._layouts.cache_info().hits > 0


# drawn diagrams: leaves, two thirds of them ("half",) standing for one half
# of a pair; the halves are paired up across the whole diagram once it is
# drawn, all with one Q/Q_tilde type, so that equal-shape runs are common
_HALF = ("half",)
_LEAF = st.one_of(st.just(_HALF), st.just(_HALF), st.sampled_from([
    ("free", PHI), ("free", PHIBAR), ("qloop", "Q"), ("qloop", "Qt"),
    ("ctloop", "C"), ("ctloop", "Ctilde"), ("argport", PHI)]))


@st.composite
def _drawn_body(draw, depth):
    kids = draw(st.lists(_LEAF, max_size=3))
    if depth:
        for inner in draw(st.lists(_drawn_body(depth - 1), max_size=depth)):
            kind = draw(st.sampled_from([GPSI, GPSIBAR]))
            # a repeated interior makes an equal-shape run of convs
            kids += [("conv", kind, inner)] * draw(st.integers(1, 2))
    return tuple(draw(st.permutations(kids)))


def _place_pairs(children, halves):
    """children with each half replaced by the next item of halves."""
    return tuple(next(halves) if ch == _HALF
                 else ("conv", ch[1], _place_pairs(ch[2], halves))
                 if ch[0] == "conv" else ch for ch in children)


@st.composite
def _drawn_diagrams(draw):
    slots = draw(st.lists(_drawn_body(2), min_size=1, max_size=2))
    children = iter_children(diagrams.Diagram(tuple(slots), Fraction(1)))
    assume(len(children) <= 12)  # the brute force tries every layout
    n = sum(ch == _HALF for ch, _ in children)
    ids = draw(st.lists(st.integers(0, 99), min_size=n // 2, max_size=n // 2,
                        unique=True))
    qt = draw(st.sampled_from(["Q", "Qt"]))
    halves = [("free", PHI)] * (n % 2)  # an odd half out stays free
    for pid in ids:
        halves += [("pair", pid, PHI, qt), ("pair", pid, PHIBAR, qt)]
    halves = iter(draw(st.permutations(halves)))
    return diagrams.Diagram(tuple(_place_pairs(b, halves) for b in slots),
                            Fraction(1))


def _shuffled(children, rng, rename):
    out = [("pair", rename[ch[1]], ch[2], ch[3]) if ch[0] == "pair"
           else ("conv", ch[1], _shuffled(ch[2], rng, rename))
           if ch[0] == "conv" else ch for ch in children]
    rng.shuffle(out)
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(_drawn_diagrams(), st.randoms(use_true_random=False))
def test_canonical_form_of_drawn_diagrams(d, rng):
    """The brute-force representative; idempotent; and unchanged when every
    vertex's children are shuffled and the pair ids renamed."""
    key, slots = ref_canonical(d)
    c = canonicalize(d)
    assert c.slots == slots and c.coeff == d.coeff
    assert canonical_key(d) == key
    assert canonicalize(c).slots == slots
    ids = sorted({ch[1] for ch, _ in iter_children(d) if ch[0] == "pair"})
    rename = dict(zip(ids, rng.sample(range(100, 200), len(ids))))
    moved = diagrams.Diagram(tuple(_shuffled(b, rng, rename) for b in d.slots),
                             d.coeff)
    assert canonicalize(moved).slots == slots


def test_deformed_sum_orders_and_merges_by_key():
    """Keys are the canonical slots; the listed order is the key order."""
    inputs = _oracle_inputs()
    ds = DeformedSum(inputs)
    keys = [canonical_key(d) for d in ds.diagrams()]
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
