from fractions import Fraction

import pytest

from sthirring.diagrams import DeformedSum, Diagram, graph_counts
from sthirring.errors import InvariantError, UsageError
from sthirring.perturbation import expand
from sthirring.power_counting import (
    DIVERGENT, REGULAR, classify, divergence_closed_form,
    divergence_degree, maximal_contractions, sd_propagator,
)
from sthirring.terms import PHI, PHIBAR, Leaf, Prod, Term

from helpers import maximal_diagrams


@pytest.fixture(scope="module")
def series():
    return expand(3)


def test_sd_propagator():
    assert sd_propagator(1) == 0
    assert sd_propagator(2) == 1
    assert sd_propagator(4) == 3
    with pytest.raises(UsageError):
        sd_propagator(0)


def test_closed_form_values():
    assert divergence_closed_form(1, 2) == 0
    assert divergence_closed_form(0, 2) == 1
    for k in range(6):
        assert divergence_closed_form(k, 3) == 2
        assert divergence_closed_form(k, 2) == 1 - k
        assert divergence_closed_form(k, 1) == -2 * k


def test_direct_count_examples(series):
    # k=1, d=2: N=3, L=4, rho=0; same graph at d=1 gives rho = -2
    gs = list(maximal_diagrams(series, 1))
    for g in gs:
        r2 = divergence_degree(g, 2)
        assert (r2.vertices, r2.edges, r2.rho) == (3, 4, 0)
        assert r2.scaling_degree == 4 and r2.codimension == 4
        r1 = divergence_degree(g, 1)
        assert r1.rho == -2


def test_bare_loop_at_order_zero(series):
    (g,) = list(maximal_diagrams(series, 0))
    r = divergence_degree(g, 2)
    assert (r.vertices, r.edges, r.rho) == (1, 1, 1)
    assert r.verdict == DIVERGENT


def test_direct_equals_closed_form_all_graphs(series):
    for k in range(4):
        for g in maximal_diagrams(series, k):
            for d in (1, 2, 3, 4):
                r = divergence_degree(g, d)
                assert (r.order, r.rho) == (k, divergence_closed_form(k, d))


def test_counting_lemmas_on_generated_graphs(series):
    for k in range(4):
        for g in maximal_diagrams(series, k):
            c = graph_counts(g)
            assert c["N"] == 2 * k + 1
            assert c["L"] == 3 * k + 1
            assert c["free_points"] == 1  # parity survivor


def test_classify_verdict_patterns(series):
    d2 = classify(2, 3, series=series)
    assert [r.verdict for r in d2] == [DIVERGENT, DIVERGENT, REGULAR, REGULAR]
    d1 = classify(1, 3, series=series)
    assert [str(r.rho) for r in d1] == ["0", "-2", "-4", "-6"]
    d3 = classify(3, 3, series=series)
    assert all(r.rho == 2 for r in d3)
    d4 = classify(4, 3, series=series)
    rhos = [r.rho for r in d4]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))


def test_classify_reports_once_per_order(monkeypatch):
    """Every graph is counted from its monomial's census; each order's
    report is one direct power count of one Diagram (rho depends on N, L
    and d only)."""
    from sthirring import power_counting
    calls = {"divergence_degree": 0, "graph_counts": 0}
    for name in calls:
        def counting(*args, _real=getattr(power_counting, name), _name=name,
                     **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(power_counting, name, counting)
    reports = classify(2, 4, series=expand(4))
    assert [r.n_graphs for r in reports] == [1, 2, 18, 288, 6600]
    assert calls == {"divergence_degree": 5, "graph_counts": 5}


def test_classify_rejects_a_graph_off_the_counting_laws(series, monkeypatch):
    from sthirring import power_counting
    real = power_counting.maximal_contractions
    stray = Term(1, Prod((Leaf(PHI, 0), Leaf(PHIBAR, 1), Leaf(PHI, 2))))
    counts = graph_counts(Diagram(
        ((("free", PHI), ("free", PHIBAR), ("free", PHI)),), Fraction(1)))

    def with_stray(s, k):
        yield from real(s, k)
        if k == 1:
            yield stray, counts, (), ()

    monkeypatch.setattr(power_counting, "maximal_contractions", with_stray)
    with pytest.raises(InvariantError, match="order 1 graphs"):
        classify(2, 1, series=series)


def test_classify_rejects_a_monomial_short_of_a_pairing(series, monkeypatch):
    from sthirring import power_counting
    real = power_counting.maximal_contractions

    def short(s, k):
        items = list(real(s, k))
        yield from items[:-1] if k == 2 else items

    monkeypatch.setattr(power_counting, "maximal_contractions", short)
    with pytest.raises(InvariantError, match=r"order 2 graphs .* 5\), not "):
        classify(2, 2, series=series)


def test_classify_rejects_a_spot_check_off_the_census(series, monkeypatch):
    from sthirring import power_counting
    lone = Diagram(((("free", PHI),),), Fraction(1))
    monkeypatch.setattr(power_counting, "pairing_diagram",
                        lambda t, ps, qs: lone)
    # order 0's graph is that lone leaf, so order 1's spot check fails
    off = r"order 1 graphs .*\(3, 4, 1\), \(1, 1, 1\), 2\), not"
    with pytest.raises(InvariantError, match=off):
        classify(2, 1, series=series)


def test_monotone_in_dimension(series):
    for k in range(4):
        vals = [divergence_closed_form(k, d) for d in (1, 2, 3, 4, 5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_non_admissible_graph_rejected():
    free2 = Diagram(((("free", PHI), ("free", PHI), ("free", PHIBAR)),),
                    Fraction(1))
    with pytest.raises(UsageError):
        divergence_degree(free2, 2)
    # the dimension is checked first, with sd_propagator's message
    with pytest.raises(UsageError, match="dimension must be >= 1"):
        divergence_degree(free2, 0)


def test_distinct_graph_merging(series):
    ds = DeformedSum(maximal_diagrams(series, 1))
    # the two maximal contractions of the order-1 vertex are isomorphic
    assert len(ds) == 1
    assert ds.diagrams()[0].coeff == 1  # two tagged pairings at weight 1/2


def test_maximal_contractions_count_and_order():
    from itertools import combinations, permutations

    from sthirring.deformation import contraction_count, term_census

    from helpers import ref_diagram_for_matching
    s4 = expand(4)
    for k in range(5):
        want = 0
        for t in s4.coefficient(k, "spinor"):
            _, leaves = term_census(t)
            r = sum(l.species == PHI for l in leaves)
            rb = sum(l.species == PHIBAR for l in leaves)
            want += contraction_count(r, rb, min(r, rb))
        assert sum(1 for _ in maximal_contractions(s4, k)) == want
    # same diagrams in the same order as before: Phi subsets in combination
    # order, each with its PhiBar partners in permutation order
    for k in range(4):
        ref = []
        for t in s4.coefficient(k, "spinor"):
            templates, leaves = term_census(t)
            phis = [l.pos for l in leaves if l.species == PHI]
            bars = [l.pos for l in leaves if l.species == PHIBAR]
            top = min(len(phis), len(bars))
            ref += [ref_diagram_for_matching(t.coeff, templates, leaves,
                                             tuple(zip(ps, qs)))
                    for ps in combinations(phis, top)
                    for qs in permutations(bars, top)]
        assert list(maximal_diagrams(s4, k)) == ref
