"""Each one-walk fast path of the series census against its walk-per-question
reference in `helpers`: term canonicalization, `vertex_term` (against the
canonical form of the raw monomial), power counting's census counts and
the coefficient of a matching's diagram; `graph_counts`, which counts the
exported graph of `to_graph`, against a count over the skeleton; and that
the symbolic and numerical layers leave no reference cycle behind a call."""

import gc
import random
from fractions import Fraction

import numpy as np
import pytest

from sthirring import clifford, properties, terms
from sthirring.canonical import _PERM_BUDGET
from sthirring.cli import _stream_json
from sthirring.deformation import (
    _diagram_for_matching, _halvings, expectation_report,
    extract_counterterms, gamma_Q, pairing_diagram, term_census, two_point,
)
from sthirring.diagrams import DeformedSum, graph_counts
from sthirring.errors import InvariantError, UsageError
from sthirring.kernels import (
    KernelParams, TestFunction, clipped_integral, dirac_kernel_2d,
    greens_identity_residual, kernel_check, q_kernel_1d, scaling_degree_probe,
)
from sthirring.perturbation import COSPINOR, SPINOR, expand, vertex_term
from sthirring.power_counting import maximal_contractions
from sthirring.terms import (
    GPSI, GPSIBAR, PHI, PHIBAR,
    Conv, Gamma, Leaf, Prod, Term, TermSum, canonicalize, grading,
    index_occurrences, phi, phibar, product, rename_indices,
)

from helpers import (
    all_contractions, contractions, diagram_to_json, iter_children,
    maximal_diagrams, partial_matchings, ref_canonicalize,
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


# Whether a test of `vertex_term` empties the placement memo of `terms`
# (which `vertex_term` fills) before each join, so that every factor is
# placed in full, or, warm, keeps what the cold pass and the rest of the run
# put in it.  Tests of `canonicalize` alone run once: it reads no memo
# (test_canonicalize_reads_no_memo).
MEMO_PASSES = (True, False)


def _assert_same_canonical_form(t):
    """canonicalize(t) against ref_canonicalize(t); returns the latter."""
    got, want = canonicalize(t), ref_canonicalize(t)
    assert got.coeff == want.coeff
    assert got.node == want.node
    assert got._key == want._key
    assert list(index_occurrences(t.node)) == list(ref_index_occurrences(t.node))
    return want


def test_vertex_term_and_its_canonical_form_match_the_references(series):
    """The join equals canonicalize (and ref_canonicalize) of the raw
    monomial that ref_vertex_term builds, in node, key and coefficient,
    with the memo emptied before each join and with it warm; twin factors
    (tb, tc on the G_psi branch, ta, tc on G_psi_bar) take the tie-break."""
    for cold in MEMO_PASSES:
        calls = twins = 0
        for ta, tb, tc, kind in _factor_triples(series, 5):
            if cold:
                terms._sealed.clear()
            got = vertex_term(ta, tb, tc, kind)
            want = _assert_same_canonical_form(
                ref_vertex_term(ta, tb, tc, kind))
            assert (got.coeff, got.node, got._key) == (
                want.coeff, want.node, want._key)
            calls += 1
            twins += tc._key == (tb if kind == GPSI else ta)._key
        # 1 + 3 + 12 + 55 + 273 monomials per branch, none merged
        assert (calls, twins) == (2 * 344, 160)


def test_building_the_series_canonicalizes_only_order_zero(monkeypatch):
    """Every monomial of F_1..F_5 is joined from canonical factors: the
    whole build calls canonicalize and TermSum.add for F_0 of each branch
    alone."""
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(terms, "canonicalize",
                        counted("canonicalize", terms.canonicalize))
    monkeypatch.setattr(TermSum, "add", counted("add", TermSum.add))
    s = expand(5)
    for k in range(6):
        for branch in BRANCHES:
            s.coefficient(k, branch)
    assert sorted(calls) == ["add", "add", "canonicalize", "canonicalize"]


def test_a_merged_entry_keeps_its_key(monkeypatch):
    """A merge sums the coefficient into the entry held, with what that
    entry caches: the merged Term's `_key` is its key in the sum, so a
    merged factor enters `vertex_term` with no second canonicalize."""
    (key, merged), = TermSum([phi(0), phi(0)])._data.items()
    assert (merged.coeff, merged._key) == (2, key)
    s = expand(1)
    ta, tc = (s.coefficient(0, b).terms()[0] for b in (COSPINOR, SPINOR))
    f1, = s.coefficient(1, SPINOR).terms()
    twice = TermSum()
    twice.add_keyed(f1)
    twice.add_keyed(f1)
    (key, merged), = twice._data.items()
    assert merged._key == key == f1._key
    want = vertex_term(ta, f1, tc, GPSI)

    def refused(t):
        raise AssertionError("a keyed factor canonicalized again")

    monkeypatch.setattr(terms, "canonicalize", refused)
    got = vertex_term(ta, merged, tc, GPSI)
    assert (got.node, got._key, got.coeff) == (want.node, want._key,
                                               2 * want.coeff)


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
    # a factor of the right rank that is no recursion monomial: the raw
    # builder takes it, the join refuses it
    unsealed = product(phi(0), phibar(0))
    assert ref_vertex_term(phibar(0), unsealed, phi(0), GPSI)
    with pytest.raises(InvariantError, match="recursion factor must be"):
        vertex_term(phibar(0), unsealed, phi(0), GPSI)


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
        assert [d.slots for d in got.diagrams()] == \
            [d.slots for d in want.diagrams()]


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
            for t in series.coefficient(k, branch).terms():
                for _ in range(5):
                    u = Term(t.coeff, _shuffle_nested(t.node, rng))
                    _assert_same_canonical_form(u)
                    moved += canonicalize(u)._key != t._key
                    n += 1
    assert (moved, n) == (49, 720)


def _offset_factor(n):
    """A sealed G_psi_bar factor behind n sealed G_psi ones, so that it is
    entered with 2n indices named.  Its two gammas g(m,u,v), g(m,w,u) tie
    and are linked, and the tie-break compares the names of u and w, which
    are 2n+5 and 2n+3: at n = 3 that is "i11" against "i9", and the string
    order picks the other order of the two."""
    kids = tuple(Conv(GPSI, 2 * j, 2 * j + 1, Leaf(PHI, 2 * j + 1))
                 for j in range(n))
    o, x, m, u, v, w = range(2 * n, 2 * n + 6)
    factor = Conv(GPSIBAR, o, x, Prod((
        Gamma(m, u, v), Gamma(m, w, u),
        Leaf(PHI, v), Leaf(PHIBAR, w), Leaf(PHIBAR, x))))
    return Term(1, Prod(kids + (factor,)))


def _context_pairs():
    """Pairs of terms whose factor G_psi_bar * [...] has one input shape and
    is entered with as many indices named, but whose results differ: its
    out_index is named before it or not; an index of it is named before
    it (so it is not sealed) or is its own free index."""

    # ordered first; the G_psi_bar factor takes up its index 2, or not
    g_psi = Conv(GPSI, 0, 1, Prod((Leaf(PHI, 1), Leaf(PHI, 2))))
    return [
        Term(1, Prod((g_psi, Conv(GPSIBAR, 2, 3, Leaf(PHIBAR, 3))))),
        Term(1, Prod((g_psi, Conv(GPSIBAR, 3, 5, Leaf(PHIBAR, 5)),
                      Leaf(PHI, 3)))),
        Term(1, Prod((g_psi, Conv(GPSIBAR, 3, 4, Prod((
            Leaf(PHIBAR, 4), Leaf(PHIBAR, 2))))))),
        Term(1, Prod((g_psi, Conv(GPSIBAR, 3, 4, Prod((
            Leaf(PHIBAR, 4), Leaf(PHIBAR, 5))))))),
    ]


def test_sealed_subtree_memo_keys_on_its_context():
    """The canonical form of a sealed factor depends on the offset of the
    naming and on whether its out_index is named before it, and a factor
    with an index named before it is not sealed; `canonicalize`, which
    keeps no memo, gives the reference's form for each such context,
    twice over, and the string order moves the factor behind 3 others."""
    crafted = [_offset_factor(n) for n in range(5)] + _context_pairs()
    for t in crafted + crafted:
        _assert_same_canonical_form(t)
    factors = [rename_indices(canonicalize(_offset_factor(n)).node
                              .children[-1], lambda i, n=n: i - 2 * n)
               for n in range(5)]
    assert [f == factors[0] for f in factors] == [True] * 3 + [False, True]


def test_sealed_subtree_memo_holds_only_factors_of_products():
    """The memo holds the placed forms of recursion factors under (offset,
    shape); a monomial's own join at offset 0 never enters it, and every
    factor is named from offset 2 on, so building spinor F_5 from an empty
    memo stores 274 entries, none below offset 2."""
    terms._sealed.clear()
    expand(5).coefficient(5, SPINOR)
    assert [k for k in terms._sealed if k[0] < 2] == []
    assert len(terms._sealed) == 274


class _NoMemo:
    """Stands in for `terms._sealed` and fails any read or write of it."""

    def _used(self, *args):
        raise AssertionError("canonicalize used the placement memo")

    __getattr__ = __getitem__ = __setitem__ = __contains__ = _used
    __len__ = __iter__ = _used


def test_canonicalize_reads_no_memo(series, monkeypatch):
    """`canonicalize` is a plain engine: with the placement memo replaced
    by one that fails on any use, it still canonicalizes every F_0..F_4
    monomial of both branches (each its own fixed point), 300 random terms
    and the crafted context terms above."""
    held = [t for k in range(5) for b in BRANCHES
            for t in series.coefficient(k, b)]
    rng = random.Random(16)
    drawn = [properties.random_term(rng) for _ in range(300)]
    crafted = [_offset_factor(n) for n in range(5)] + _context_pairs()
    monkeypatch.setattr(terms, "_sealed", _NoMemo())
    for t in held:
        assert canonicalize(t)._key == t._key
    for t in drawn + crafted:
        canonicalize(t)


def test_factors_that_no_join_built_are_placed_alike(series):
    """A factor that carries no join, such as `canonicalize` of a
    recursion monomial, is placed by `_canon_node` under placeholder
    names: with every convolution factor of F_1..F_4 rebuilt that way,
    `vertex_term` equals the join of the held factors and the canonical
    form of the raw monomial, with the memo emptied before each join and
    with it warm."""
    for cold in MEMO_PASSES:
        for ta, tb, tc, kind in _factor_triples(series, 4):
            rebuilt = [canonicalize(t) if isinstance(t.node, Conv) else t
                       for t in (ta, tb, tc)]
            assert all("_factor" not in t.__dict__ for t in rebuilt
                       if isinstance(t.node, Conv))
            if cold:
                terms._sealed.clear()
            got = vertex_term(*rebuilt, kind)
            if cold:
                terms._sealed.clear()
            joined = vertex_term(ta, tb, tc, kind)
            want = canonicalize(ref_vertex_term(ta, tb, tc, kind))
            assert (got.node, got._key, got.coeff) == (
                joined.node, joined._key, joined.coeff)
            assert (got.node, got._key, got.coeff) == (
                want.node, want._key, want.coeff)
            assert all(t.__dict__["_factor"].parts is None for t in rebuilt)


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
    graphs = [g for k in range(5) for g in maximal_diagrams(series, k)]
    assert len(graphs) == 6909
    for g in graphs:
        assert graph_counts(g) == ref_graph_counts(g)
    # recursion vertices carry gammas, so their coincident pairs are
    # tagged; a bare monomial's are qloops
    rng = random.Random(3)
    drawn = [properties.random_term(rng) for _ in range(20)]
    sums = [gamma_Q(series.coefficient(3, b)) for b in BRANCHES]
    sums += [gamma_Q(TermSum([t])) for t in drawn]
    # operator diagrams carry an argument port; two-point diagrams have a
    # root per slot
    sums += [h.ops for h in extract_counterterms(series, 3).values()]
    sums += [ds for a, b in ((SPINOR, COSPINOR), (COSPINOR, SPINOR))
             for ds in two_point(series, a, b, 3).values()]
    kinds = set()
    slots = set()
    for ds in sums:
        for d in ds.diagrams():
            assert graph_counts(d) == ref_graph_counts(d)
            kinds |= {ch[0] for ch, _ in iter_children(d)}
            slots.add(len(d.slots))
    assert kinds == {"qloop", "ctloop", "pair", "free", "conv", "argport"}
    assert slots == {1, 2}


def test_census_counts_match_every_maximal_diagram(series):
    """Power counting reads each graph from its monomial's census: through
    order 4 the compact items are the pairings of `contractions`, one to
    one and in order, `pairing_diagram` builds each item's Diagram, and
    that Diagram has the yielded counts."""
    graphs = 0
    for k in range(5):
        items = iter(maximal_contractions(series, k))
        for t in series.coefficient(k, SPINOR):
            g = grading(t)
            for d in contractions(t, min(g.r, g.r_bar)):
                u, counts, ps, qs = next(items)
                assert u is t
                assert pairing_diagram(t, ps, qs) == d
                assert graph_counts(d) == ref_graph_counts(d) == counts
                graphs += 1
        assert next(items, None) is None
    assert graphs == 6909


def test_matching_diagrams_match_the_fraction_halving_reference(series):
    halved = 0
    for branch in BRANCHES:
        for k in range(5):
            for t in series.coefficient(k, branch):
                templates, leaves = term_census(t)
                halvings = _halvings(t.coeff, leaves)
                phis = [l.pos for l in leaves if l.species == PHI]
                bars = [l.pos for l in leaves if l.species == PHIBAR]
                for m in partial_matchings(phis, bars):
                    size = 1 + len(m)  # any orbit size scales the weight
                    got = _diagram_for_matching(halvings, templates, leaves,
                                                m, size)
                    want = ref_diagram_for_matching(t.coeff, templates,
                                                    leaves, m)
                    assert got == want.scaled(size)
                    assert isinstance(got.coeff, Fraction)
                    halved += want.coeff != t.coeff
    assert halved > 0


def _streamed(payload) -> list:
    out: list = []
    _stream_json(payload, out.append)
    return out


_BUMP_1D = TestFunction((0.3,), 0.5, 1.0)
_BUMP_2D = TestFunction((0.3, -0.2), 0.4, 1.0)
_CALLS = {
    "coefficient(4)": lambda: expand(4).coefficient(4),
    "gamma_Q(F_3)": lambda: gamma_Q(expand(3).coefficient(3)),
    "two_point(K=3)": lambda: two_point(expand(3), SPINOR, COSPINOR, 3),
    "extract_counterterms(K=3)": lambda: extract_counterterms(expand(3), 3),
    "diagram_to_json(gamma_Q(F_2))": lambda: [
        diagram_to_json(d) for d in gamma_Q(expand(2).coefficient(2))],
    "_stream_json(F_3, gamma_Q(F_2))": lambda: _streamed(
        [expand(3).coefficient(3).terms(),
         gamma_Q(expand(2).coefficient(2)).diagrams()]),
    "expectation_report(F_4)": lambda: expectation_report(expand(4), 4),
    "q_kernel_1d, clipped_integral": lambda: [
        q_kernel_1d(KernelParams(1, 1.0), _BUMP_1D),
        clipped_integral(KernelParams(1, 1.0), _BUMP_1D)],
    "greens_identity_residual": lambda: [greens_identity_residual(
        KernelParams(2, 1.0), _BUMP_2D)],
    "scaling_degree_probe(dirac_kernel_2d)": lambda: scaling_degree_probe(
        lambda x: dirac_kernel_2d(KernelParams(2, 1.0), x),
        np.array([1.0, 0.7])),
    "kernel_check(d=1)": lambda: kernel_check(1, 1.0, 20, 3),
    "kernel_check(d=2)": lambda: kernel_check(2, 1.0, 20, 0),
    "build_gamma_rep(4)": lambda: clifford.build_gamma_rep(4),
    "properties.run_all(3, trials=4)": lambda: properties.run_all(3, trials=4),
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_symbolic_calls_leave_no_reference_cycles(name):
    """A self-recursive closure makes a function-cell cycle on every call,
    which keeps the call's tables alive until the cyclic collector runs.
    With the collector off, a call must leave it nothing to find: the CLI
    runs every command with the collector off.  The calls reach each layer
    a command does, the numerical kernels, the gamma matrices and the
    property trials too."""
    gc.collect()
    gc.disable()
    try:
        result = _CALLS[name]()
        found = gc.collect()
    finally:
        gc.enable()
    assert result
    assert found == 0
