"""Each one-walk fast path of the series census against its walk-per-question
reference in `helpers`: term canonicalization, `vertex_term`,
`graph_counts` and the coefficient of a matching's diagram; and that the
symbolic layers leave no reference cycle behind a call."""

import gc
import random
from fractions import Fraction

import pytest

from sthirring import properties
from sthirring.canonical import _PERM_BUDGET
from sthirring.deformation import (
    _diagram_for_matching, extract_counterterms, gamma_Q, term_census,
    two_point,
)
from sthirring.diagrams import DeformedSum, diagram_to_json, graph_counts
from sthirring.errors import InvariantError, UsageError
from sthirring.perturbation import COSPINOR, SPINOR, expand, vertex_term
from sthirring.power_counting import maximal_contractions
from sthirring.terms import (
    GPSI, GPSIBAR, PHI, PHIBAR,
    Conv, Gamma, Leaf, Prod, Term, TermSum, canonicalize, index_occurrences,
    phi, phibar, product,
)

from helpers import (
    all_contractions, iter_children, partial_matchings, ref_canonicalize,
    ref_diagram_for_matching, ref_graph_counts, ref_index_occurrences,
    ref_vertex_term, wrapped,
)

BRANCHES = (SPINOR, COSPINOR)


@pytest.fixture(scope="module")
def series():
    return expand(5)


def _factor_triples(series, K):
    """(ta, tb, tc, kind) of every vertex_term call that builds F_1..F_K of
    both branches."""
    for k in range(1, K + 1):
        for branch, kind in ((SPINOR, GPSI), (COSPINOR, GPSIBAR)):
            for k1 in range(k):
                for k2 in range(k - k1):
                    fc = series.coefficient(k - 1 - k1 - k2, branch)
                    for ta in series.coefficient(k1, COSPINOR):
                        for tb in series.coefficient(k2, SPINOR):
                            for tc in fc:
                                yield ta, tb, tc, kind


def _assert_same_canonical_form(t):
    got, want = canonicalize(t), ref_canonicalize(t)
    assert got.coeff == want.coeff
    assert got.node == want.node
    assert got._key == want._key
    assert list(index_occurrences(t.node)) == list(ref_index_occurrences(t.node))


def test_vertex_term_and_its_canonical_form_match_the_references(series):
    calls = 0
    for ta, tb, tc, kind in _factor_triples(series, 5):
        raw = vertex_term(ta, tb, tc, kind)
        assert raw == ref_vertex_term(ta, tb, tc, kind)
        _assert_same_canonical_form(raw)
        calls += 1
    # 1 + 3 + 12 + 55 + 273 monomials per branch, none merged
    assert calls == 2 * 344


def test_vertex_term_errors_match_the_reference():
    bad = [
        (phibar(0), phi(0), phi(0), "G_x"),            # unknown propagator
        (phi(0), phi(0), phi(0), GPSI),                # no free lower index
        (phibar(0), phibar(0), phi(0), GPSI),          # no free upper index
        (phibar(0), product(phi(0), phi(0)), phi(0), GPSI),  # two
        (phibar(0), phi(0), phibar(0), GPSI),          # tc of the wrong rank
        (phibar(0), phi(0), phi(0), GPSIBAR),
    ]
    for args in bad:
        with pytest.raises(InvariantError) as got:
            vertex_term(*args)
        with pytest.raises(InvariantError) as want:
            ref_vertex_term(*args)
        assert str(got.value) == str(want.value)
    with pytest.raises(InvariantError, match="unknown branch propagator"):
        vertex_term(*bad[0])


def test_order_5_monomials_that_are_not_fixed_points_keep_their_forms(series):
    """ROADMAP item 10: a second pass moves 4 spinor and 5 cospinor F_5
    monomials, and each pass alternates between two keys; the fast path
    keeps that, pass for pass."""
    moved = {b: [t for t in series.coefficient(5, b)
                 if canonicalize(t).node != t.node] for b in BRANCHES}
    assert {b: len(ts) for b, ts in moved.items()} == {SPINOR: 4, COSPINOR: 5}
    for t in moved[SPINOR] + moved[COSPINOR]:
        _assert_same_canonical_form(t)
        once = canonicalize(t)
        _assert_same_canonical_form(once)
        assert canonicalize(once)._key == t._key != once._key


def test_order_5_monomials_that_are_not_fixed_points_deform_as_held(series):
    """Gamma_Q of the one-term sum of each spinor F_5 monomial that a second
    canonicalize pass moves (ROADMAP item 10) equals the merged sum of every
    partial pairing of the term that the sum holds.  The cospinor five agree
    too; they are left out of the suite for time."""
    moved = [t for t in series.coefficient(5, SPINOR)
             if canonicalize(t).node != t.node]
    assert len(moved) == 4
    for t in moved:
        s = TermSum([t])
        (held,) = s
        assert held.node != t.node
        got = gamma_Q(s)
        want = DeformedSum(all_contractions(held))
        assert got == want
        assert [d.slots for d in got] == [d.slots for d in want]


def _shuffle_nested(node, rng, depth=0):
    """node with the children of every product below the outermost one
    shuffled, innermost first."""
    if isinstance(node, Conv):
        return Conv(node.kind, node.out_index, node.in_index,
                    _shuffle_nested(node.inner, rng, depth))
    if isinstance(node, Prod):
        kids = [_shuffle_nested(c, rng, depth + 1) for c in node.children]
        if depth:
            rng.shuffle(kids)
        return Prod(tuple(kids))
    return node


def test_nested_product_shuffles_match_the_reference(series):
    """The canonical form requires nested products in canonical order
    (ROADMAP item 10); shuffling them moves the key of 49 of these 720
    terms, and the fast path moves the same ones to the same forms."""
    rng = random.Random(1)
    moved = n = 0
    for branch in BRANCHES:
        for k in range(5):
            for t in series.coefficient(k, branch):
                for _ in range(5):
                    u = Term(t.coeff, _shuffle_nested(t.node, rng))
                    _assert_same_canonical_form(u)
                    moved += canonicalize(u)._key != t._key
                    n += 1
    assert (moved, n) == (49, 720)


def test_random_terms_and_their_convolutions_match_the_reference():
    rng = random.Random(16)
    convolved = 0
    for _ in range(300):
        t = properties.random_term(rng)
        _assert_same_canonical_form(t)
        # a product that is not yet canonical, in both factor orders
        u = properties.random_term(rng)
        _assert_same_canonical_form(product(t, u))
        _assert_same_canonical_form(product(u, t))
        w = wrapped(t)
        if w is not None:
            _assert_same_canonical_form(w)
            convolved += 1
    assert convolved > 50


def _error(fn, t):
    try:
        fn(t)
    except (InvariantError, UsageError) as exc:
        return type(exc), str(exc)
    return None


def test_errors_match_the_reference():
    pairs = 6  # 6!**2 orders of the linked leaves: past the budget
    assert 720 ** 2 > _PERM_BUDGET
    linked = Term(1, Prod(tuple(Leaf(PHI, i) for i in range(pairs)) +
                          tuple(Leaf(PHIBAR, i) for i in range(pairs))))
    bad = [
        linked,
        Term(1, Prod((Leaf(PHI, 0), Leaf(PHI, 0)))),              # polarity
        Term(1, Prod((Leaf(PHI, 0), Gamma(0, 1, 2)))),            # kinds
        Term(1, Prod((Gamma(1, 1, 1), Leaf(PHI, 1)))),            # 3 times
        Term(1, Prod((Leaf(PHIBAR, 3), Conv(GPSI, 3, 4, Leaf(PHI, 4)),
                      Leaf(PHIBAR, 3)))),
    ]
    for t in bad:
        got = _error(canonicalize, t)
        assert got is not None
        assert got == _error(ref_canonicalize, t)
    assert _error(canonicalize, linked) == (
        UsageError, "canonicalization permutation budget exceeded")


def test_graph_counts_match_the_reference(series):
    graphs = [g for k in range(5) for g in maximal_contractions(series, k)]
    assert len(graphs) == 6909
    for g in graphs:
        assert graph_counts(g) == ref_graph_counts(g)
    # recursion vertices carry gammas, so their coincident pairs are
    # tagged; a bare monomial's are qloops
    rng = random.Random(3)
    drawn = [properties.random_term(rng) for _ in range(20)]
    sums = [gamma_Q(series.coefficient(3, b)) for b in BRANCHES]
    sums += [gamma_Q(TermSum([t])) for t in drawn]
    kinds = set()
    for ds in sums:
        for d in ds.diagrams():
            assert graph_counts(d) == ref_graph_counts(d)
            kinds |= {ch[0] for ch, _ in iter_children(d)}
    assert {"qloop", "ctloop", "pair", "free", "conv"} <= kinds


def test_matching_diagrams_match_the_fraction_halving_reference(series):
    halved = 0
    for branch in BRANCHES:
        for k in range(5):
            for t in series.coefficient(k, branch):
                templates, leaves = term_census(t)
                phis = [l.pos for l in leaves if l.species == PHI]
                bars = [l.pos for l in leaves if l.species == PHIBAR]
                for m in partial_matchings(phis, bars):
                    got = _diagram_for_matching(t.coeff, templates, leaves, m)
                    want = ref_diagram_for_matching(t.coeff, templates,
                                                    leaves, m)
                    assert got == want
                    assert isinstance(got.coeff, Fraction)
                    halved += got.coeff != t.coeff
    assert halved > 0


_CALLS = {
    "coefficient(4)": lambda: expand(4).coefficient(4),
    "gamma_Q(F_3)": lambda: gamma_Q(expand(3).coefficient(3)),
    "two_point(K=3)": lambda: two_point(expand(3), SPINOR, COSPINOR, 3),
    "extract_counterterms(K=3)": lambda: extract_counterterms(expand(3), 3),
    "diagram_to_json(gamma_Q(F_2))": lambda: [
        diagram_to_json(d) for d in gamma_Q(expand(2).coefficient(2))],
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_symbolic_calls_leave_no_reference_cycles(name):
    """A self-recursive closure makes a function-cell cycle on every call,
    which keeps the call's tables alive until the cyclic collector runs.
    With the collector off, a call must leave it nothing to find."""
    gc.collect()
    gc.disable()
    try:
        result = _CALLS[name]()
        found = gc.collect()
    finally:
        gc.enable()
    assert result
    assert found == 0
