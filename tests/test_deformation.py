import random
from collections import Counter
from fractions import Fraction

import pytest

from sthirring.deformation import (
    CountertermOperator,
    _pointwise_cubic, apply_operator, brute_force_contractions,
    contraction_count, expectation_report, extract_counterterms,
    gamma_Q, gamma_Q_convolved, leaf_runs, orbit_matchings,
    term_census, two_point,
)
from sthirring.diagrams import (
    DeformedSum, Diagram, canonicalize as canonicalize_diagram, convolved,
    diagram_to_json, free_leaves, graph_counts,
    to_dot, to_graph,
)
from sthirring.errors import UsageError
from sthirring.perturbation import COSPINOR, SPINOR, expand
from sthirring.properties import random_term, run_all
from sthirring.terms import (
    GPSI, GPSIBAR, PHI, PHIBAR,
    Conv, Gamma, Leaf, Prod, Term, TermSum,
    canonicalize, convolve, grading, phi, phibar, product,
)

from helpers import (
    all_contractions, bullet_cross, canonical_key, deformedsum_from_json,
    deformedsum_to_json, diagram_from_json, iter_children, partial_matchings,
)


@pytest.fixture(scope="module")
def series():
    return expand(4)


def D(*slots, coeff=1):
    return Diagram(tuple(slots), Fraction(coeff))


def test_identity_on_single_generators():
    for t in (phi(0), phibar(0)):
        ds = gamma_Q(TermSum([t]))
        assert len(ds) == 1
        d = ds.diagrams()[0]
        assert d.coeff == 1
        assert len(free_leaves(d)) == 1


def test_pair_monomial_gets_diagonal_covariance():
    ds = gamma_Q(TermSum([product(phi(0), phibar(0))]))
    want = DeformedSum([
        D((("free", PHI), ("free", PHIBAR))),
        D((("qloop", "Q"),)),
    ])
    assert ds == want


def test_gamma_bilinear_gets_tagged_loop():
    t = Term(1, Prod((Leaf(PHIBAR, 0), Gamma(1, 0, 2), Leaf(PHI, 2))))
    ds = gamma_Q(TermSum([t]))
    tagged = [d for d in ds if any(ch[0] == "ctloop" for ch in d.slots[0])]
    assert len(tagged) == 1
    assert tagged[0].slots[0] == (("ctloop", "Ctilde"),)
    assert tagged[0].coeff == Fraction(1, 2)  # half of the two-pairing lump


def test_deformed_f1_lumps_vertex_loops():
    s = expand(1)
    ds = gamma_Q(s.coefficient(1, SPINOR))
    want = DeformedSum([
        D((("conv", GPSI, (("free", PHI), ("free", PHI), ("free", PHIBAR))),)),
        D((("conv", GPSI, (("ctloop", "Ctilde"), ("free", PHI))),)),
    ])
    assert ds == want


def test_cospinor_vertex_tags_C():
    s = expand(1)
    ds = gamma_Q(s.coefficient(1, COSPINOR))
    tags = [ch for d in ds for ch in d.slots[0][0][2] if ch[0] == "ctloop"]
    assert tags == [("ctloop", "C")]


def test_contraction_count_formula_and_oracle():
    for r in range(7):
        for rb in range(7):
            for k in range(min(r, rb) + 1):
                assert contraction_count(r, rb, k) == \
                    brute_force_contractions(r, rb, k)
    assert contraction_count(1, 1, 1) == 1
    assert contraction_count(2, 1, 1) == 2
    assert contraction_count(3, 3, 2) == 18
    with pytest.raises(UsageError):
        contraction_count(2, 2, 3)


def test_diagram_counts_per_contraction_order():
    # multiplicities of gamma_Q on bare monomials match the counting formula
    # over the whole r, r' <= 6 range
    for r in range(7):
        for rb in range(7):
            if r + rb == 0:
                continue
            kids = tuple([Leaf(PHI, i) for i in range(r)] +
                         [Leaf(PHIBAR, r + i) for i in range(rb)])
            node = kids[0] if len(kids) == 1 else Prod(kids)
            ds = gamma_Q(TermSum([Term(1, node)]))
            per_k = {}
            for d in ds:
                k = sum(1 for ch in d.slots[0] if ch[0] == "qloop")
                per_k[k] = per_k.get(k, 0) + d.coeff
            want = {k: contraction_count(r, rb, k)
                    for k in range(min(r, rb) + 1)}
            assert per_k == want


def test_commutation_with_convolution(series):
    for k in (1, 2):
        for t in series.coefficient(k, SPINOR):
            wrapped = TermSum([convolve(GPSI, t)])
            assert gamma_Q(wrapped) == gamma_Q_convolved(GPSI, TermSum([t]))


def test_leaf_parity_conservation(series):
    for t in series.coefficient(2, SPINOR):
        for d in gamma_Q(TermSum([t])):
            frees = free_leaves(d)
            diff = sum(1 for sp, _ in frees if sp == PHI) - \
                sum(1 for sp, _ in frees if sp == PHIBAR)
            assert diff == 1


def test_linearity():
    t1 = canonicalize(product(phi(0), phibar(0)))
    t2 = canonicalize(product(product(phi(0), phi(1)), phibar(0)))
    a, b = Fraction(2, 3), Fraction(-5)
    lhs = gamma_Q(TermSum([t1.scaled(a), t2.scaled(b)]))
    rhs = DeformedSum()
    rhs.extend(gamma_Q(TermSum([t1])), scale=a)
    rhs.extend(gamma_Q(TermSum([t2])), scale=b)
    assert lhs == rhs


def test_expectation_vanishes(series):
    for k in range(4):
        ds, examined = expectation_report(series, k)
        assert ds.is_zero()
        assert examined > 0


def test_two_point_order_zero(series):
    tp = two_point(series, SPINOR, COSPINOR, 0)
    want = DeformedSum([D((("pair", 0, PHI, "Q"),), (("pair", 0, PHIBAR, "Q"),))])
    assert tp[0] == want


def test_two_point_order_one_diagrams(series):
    tp = two_point(series, SPINOR, COSPINOR, 1)
    want = DeformedSum([
        D((("conv", GPSI, (("ctloop", "Ctilde"), ("pair", 0, PHI, "Q"))),),
          (("pair", 0, PHIBAR, "Q"),)),
        D((("pair", 0, PHI, "Q"),),
          (("conv", GPSIBAR, (("ctloop", "C"), ("pair", 0, PHIBAR, "Q"))),)),
    ])
    assert tp[1] == want


def test_two_point_mirror_branch(series):
    tp = two_point(series, COSPINOR, SPINOR, 1)
    want0 = DeformedSum([D((("pair", 0, PHIBAR, "Qt"),), (("pair", 0, PHI, "Qt"),))])
    want1 = DeformedSum([
        D((("conv", GPSIBAR, (("ctloop", "C"), ("pair", 0, PHIBAR, "Qt"))),),
          (("pair", 0, PHI, "Qt"),)),
        D((("pair", 0, PHIBAR, "Qt"),),
          (("conv", GPSI, (("ctloop", "Ctilde"), ("pair", 0, PHI, "Qt"))),)),
    ])
    assert tp[0] == want0 and tp[1] == want1


def test_same_species_two_point_vanishes(series):
    assert two_point(series, SPINOR, SPINOR, 0)[0].is_zero()
    assert two_point(series, COSPINOR, COSPINOR, 0)[0].is_zero()


def test_bullet_cross_has_no_diagonal_markers(series):
    # cross contractions never produce coincident loops: slots are distinct
    ga = gamma_Q(series.coefficient(1, SPINOR))
    gb = gamma_Q(series.coefficient(0, COSPINOR))
    seen_cross = False
    for da in ga:
        for db in gb:
            for d in bullet_cross(da, db):
                kinds = [ch[0] for ch, _ in iter_children(d)]
                assert "qloop" not in kinds
                seen_cross = seen_cross or "pair" in kinds
    assert seen_cross


def test_h1_is_ctilde(series):
    H = extract_counterterms(series, 1)
    assert H[1].ops == DeformedSum([D((("argport", PHI), ("ctloop", "Ctilde")))])


def test_counterterm_operators_even_through_order_2(series):
    H = extract_counterterms(series, 2)
    for k in (1, 2):
        assert H[k].is_even()
        for d in H[k].ops:
            assert len(free_leaves(d)) % 2 == 0


def test_renormalized_residual_zero(series):
    H = extract_counterterms(series, 2)
    for k in (1, 2):
        assert H[k].residual.is_zero()


def test_counterterms_even_with_zero_residual_through_order_4(series):
    H = extract_counterterms(series, 4)
    assert sorted(H) == [1, 2, 3, 4]
    for k, h in H.items():
        assert h.is_even() and h.residual.is_zero()


def test_residual_matches_a_rebuilt_defect():
    """H[k].residual against the order-k defect rebuilt here from fresh
    deformations: Gamma(F_k) minus the pointwise cubic and every H_j
    insertion, j <= k, each built with apply_operator."""
    s = expand(3)
    H = extract_counterterms(s, 3)
    gf = {k: gamma_Q(s.coefficient(k, SPINOR)) for k in range(4)}
    gf_bar = {k: gamma_Q(s.coefficient(k, COSPINOR)) for k in range(4)}

    def subtract_insertions(defect, j, k):
        for h in H[j].ops:
            port = next(ch for ch, _ in iter_children(h) if ch[0] == "argport")
            source = gf if port[1] == PHI else gf_bar
            for du in source[k - j]:
                defect.add(convolved(GPSI, apply_operator(h, du)).scaled(-1))

    for k in range(1, 4):
        defect = DeformedSum()
        defect.extend(gf[k])
        defect.extend(_pointwise_cubic(gf_bar, gf, k), scale=-1)
        for j in range(1, k):
            subtract_insertions(defect, j, k)
        assert not defect.is_zero()  # H_k has something to cancel
        subtract_insertions(defect, k, k)
        assert defect == H[k].residual


def test_operator_application_roundtrip(series):
    H = extract_counterterms(series, 2)
    h1 = H[1].ops.diagrams()[0]
    u = gamma_Q(series.coefficient(0, SPINOR)).diagrams()[0]
    back = convolved(GPSI, apply_operator(h1, u))
    want = D((("conv", GPSI, (("ctloop", "Ctilde"), ("free", PHI))),))
    assert canonical_key(back) == canonical_key(want)


def test_diagram_json_roundtrip(series):
    tp = two_point(series, SPINOR, COSPINOR, 1)
    data = deformedsum_to_json(tp[1], "two_point[spinor,cospinor]", 1)
    assert (data["origin"], data["order"]) == ("two_point[spinor,cospinor]", 1)
    back = deformedsum_from_json(data)
    assert back == tp[1]
    one = tp[1].diagrams()[0]
    assert canonical_key(diagram_from_json(diagram_to_json(one))) == \
        canonical_key(one)


def test_dot_export_mentions_edge_types(series):
    d = two_point(series, SPINOR, COSPINOR, 1)[1].diagrams()[0]
    dot = to_dot(d)
    assert "digraph" in dot and "dashed" in dot
    assert "color=red" in dot  # a G_psibar stem is always present here


def test_randomized_property_suite():
    rep = run_all(seed=123, trials=12)
    assert rep["failures"] == 0


def test_expectation_vanishes_cospinor_branch(series):
    for k in range(4):
        ds, examined = expectation_report(series, k, COSPINOR)
        assert ds.is_zero() and examined > 0


def test_expectation_census_count_matches_enumeration(series):
    """`examined` is counted from each monomial's grading; the oracle walks
    every partial pairing of the monomial's census leaves."""
    for branch in (SPINOR, COSPINOR):
        for k in range(5):
            want = 0
            for t in series.coefficient(k, branch):
                _, leaves = term_census(t)
                phis = [l.pos for l in leaves if l.species == PHI]
                bars = [l.pos for l in leaves if l.species == PHIBAR]
                want += sum(1 for _ in partial_matchings(phis, bars))
            assert expectation_report(series, k, branch)[1] == want


def _stub_enumerators(monkeypatch):
    """Replace every pairing enumerator of `deformation` (the orbit walk,
    and the choices and arrangements of leaves that `contractions` walks)
    by one that records its call and yields nothing; returns the record."""
    from sthirring import deformation
    walked = []
    for name in ("combinations", "permutations", "orbit_matchings"):
        monkeypatch.setattr(deformation, name,
                            lambda *a: walked.append(a) or iter(()))
    return walked


def test_expectation_enumerates_no_partial_pairing(series, monkeypatch):
    """No F_k monomial has a full pairing (2k+1 leaves), so the expectation
    builds no diagram and walks no matching and no orbit."""
    walked = _stub_enumerators(monkeypatch)
    for branch in (SPINOR, COSPINOR):
        assert expectation_report(series, 4, branch)[1] == 55 * 501
    assert walked == []


def test_same_branch_two_point_walks_no_orbit(series, monkeypatch):
    """F^a_k1 (x) F^a_k2 has k1+k2+2 leaves of one species and k1+k2 of
    the other, so it has no complete pairing: psi-psi and psibar-psibar
    are empty through order 4 without a matching or an orbit walked."""
    walked = _stub_enumerators(monkeypatch)
    for branch in (SPINOR, COSPINOR):
        tp = two_point(series, branch, branch, 4)
        assert sorted(tp) == [0, 1, 2, 3, 4]
        assert all(ds.is_zero() for ds in tp.values())
    assert walked == []


def _reference_two_point(series, branch_a, branch_b, K):
    """Each branch deformed on its own, then paired across the tensor
    slots by the reference `bullet_cross`, keeping the completions with no
    free leaf."""
    ga = {k: gamma_Q(series.coefficient(k, branch_a)) for k in range(K + 1)}
    gb = {k: gamma_Q(series.coefficient(k, branch_b)) for k in range(K + 1)}
    out = {}
    for k in range(K + 1):
        ds = DeformedSum()
        for k1 in range(k + 1):
            for da in ga[k1]:
                for db in gb[k - k1]:
                    for d in bullet_cross(da, db):
                        if not free_leaves(d):
                            ds.add(d)
        out[k] = ds
    return out


def test_two_point_matches_cross_deformation_reference():
    """The complete pairings of the two-slot census give, diagram for
    diagram and in order, what cross-pairing the deformed branches gives."""
    s = expand(3)
    for a in (SPINOR, COSPINOR):
        for b in (SPINOR, COSPINOR):
            got = two_point(s, a, b, 3)
            want = _reference_two_point(s, a, b, 3)
            assert sorted(got) == sorted(want) == [0, 1, 2, 3]
            for k in range(4):
                assert got[k] == want[k]
                assert [(d.slots, d.coeff) for d in got[k]] == \
                    [(d.slots, d.coeff) for d in want[k]]
            if a != b:
                assert len(got[3]) == 106


def test_two_point_second_order_runs(series):
    tp = two_point(series, SPINOR, COSPINOR, 2)
    assert len(tp[2]) > 0
    for d in tp[2]:
        assert not free_leaves(d)
        assert len(d.slots) == 2


def test_renormalized_equation_closes_at_order_3():
    s = expand(3)
    H = extract_counterterms(s, 3)
    assert len(H[3].ops) == 96 and H[3].is_even()
    assert H[3].residual.is_zero()


def test_isomorphic_contraction_outcomes_merge():
    # same graph laid out with permuted children and renamed pair ids
    a = D((("conv", GPSI, (("pair", 0, PHI, "Q"), ("free", PHI),
                           ("pair", 1, PHIBAR, "Qt"))),
           ("pair", 1, PHI, "Qt"), ("pair", 0, PHIBAR, "Q")))
    b = D((("pair", 5, PHIBAR, "Q"), ("pair", 2, PHI, "Qt"),
           ("conv", GPSI, (("pair", 2, PHIBAR, "Qt"), ("pair", 5, PHI, "Q"),
                           ("free", PHI)))))
    assert canonical_key(a) == canonical_key(b)
    ds = DeformedSum([a, b])
    assert len(ds) == 1 and ds.diagrams()[0].coeff == 2


def test_non_isomorphic_edge_types_do_not_merge():
    # two Q_tilde edges between the vertices versus one Q and one Q_tilde
    qq = D((("conv", GPSI, (("pair", 0, PHI, "Q"), ("pair", 1, PHIBAR, "Qt"),
                            ("free", PHI))),
            ("pair", 0, PHIBAR, "Q"), ("pair", 1, PHI, "Qt")))
    tt = D((("conv", GPSI, (("pair", 0, PHIBAR, "Qt"), ("pair", 1, PHIBAR, "Qt"),
                            ("free", PHI))),
            ("pair", 0, PHI, "Qt"), ("pair", 1, PHI, "Qt")))
    assert canonical_key(qq) != canonical_key(tt)
    ds = DeformedSum([qq, tt])
    assert len(ds) == 2


def test_mass_checksum_per_contraction_order():
    """For every monomial t of F_0..F_4, the coefficients of Gamma_Q(t) summed
    per number of contracted pairs equal the census closed form: each
    matching weighs t.coeff, halved once per tagged coincident pair.  A
    canonicalizer that lost or double-counted a diagram would break a sum
    (all weights are positive, so nothing cancels)."""
    series = expand(4)
    checked = 0
    for branch in (SPINOR, COSPINOR):
        for k in range(5):
            for t in series.coefficient(k, branch):
                _, leaves = term_census(t)
                phis = [l.pos for l in leaves if l.species == PHI]
                bars = [l.pos for l in leaves if l.species == PHIBAR]
                want: dict = {}
                count: dict = {}
                for m in partial_matchings(phis, bars):
                    w = t.coeff
                    for i, j in m:
                        if leaves[i].vertex == leaves[j].vertex and leaves[i].taggable:
                            w /= 2
                    want[len(m)] = want.get(len(m), 0) + w
                    count[len(m)] = count.get(len(m), 0) + 1
                assert count == {n: contraction_count(len(phis), len(bars), n)
                                 for n in range(min(len(phis), len(bars)) + 1)}
                got: dict = {}
                for d in gamma_Q(TermSum([t])):
                    n = graph_counts(d)["pair_points"]
                    got[n] = got.get(n, 0) + d.coeff
                assert got == want
                checked += 1
    assert checked == 2 * (1 + 1 + 3 + 12 + 55)


def test_linearity_check_deforms_independently(monkeypatch):
    """check_linearity compares gamma_Q of the combination with gamma_Q of
    each term: three separate calls per trial, none of them shared."""
    import random

    from sthirring import properties
    calls = []
    real = properties.gamma_Q

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(properties, "gamma_Q", counting)
    assert properties.check_linearity(random.Random(5), 2)["failures"] == 0
    assert len(calls) == 6
    assert len({id(x) for x in calls}) == 6


# --------------------------------------------------------------------------
# one deformation per orbit
# --------------------------------------------------------------------------

def _bare(r, rb):
    kids = tuple([Leaf(PHI, i) for i in range(r)] +
                 [Leaf(PHIBAR, r + i) for i in range(rb)])
    return canonicalize(Term(1, kids[0] if len(kids) == 1 else Prod(kids)))


def _orbit_oracle_terms(series):
    """Every monomial of F_0..F_4 on both branches, random_term draws over
    60 seeds, and the bare monomials Phi^r PhiBar^rb with r, rb <= 6."""
    out = [t for branch in (SPINOR, COSPINOR) for k in range(5)
           for t in series.coefficient(k, branch)]
    for seed in range(60):
        rng = random.Random(seed)
        out += [random_term(rng) for _ in range(2)]
    out += [_bare(r, rb) for r in range(7) for rb in range(7) if r + rb]
    return out


def _runs(t):
    _, leaves = term_census(t)
    return leaf_runs(leaves, PHI), leaf_runs(leaves, PHIBAR)


def _table(matching, phi_runs, bar_runs):
    """n[u][w] of a matching, as a sorted tuple of ((u, w), n)."""
    run_of = {p: u for u, run in enumerate(phi_runs) for p in run}
    run_of.update({p: w for w, run in enumerate(bar_runs) for p in run})
    return tuple(sorted(Counter((run_of[a], run_of[b])
                                for a, b in matching).items()))


def test_orbit_deformation_matches_full_enumeration(series):
    """gamma_Q deforms one pairing per orbit; the oracle canonicalizes and
    merges every pairing that `all_contractions` enumerates."""
    terms = _orbit_oracle_terms(series)
    assert len(terms) == 2 * (1 + 1 + 3 + 12 + 55) + 120 + 48
    for t in terms:
        (held,) = TermSum([t])
        got = gamma_Q(TermSum([t]))
        want = DeformedSum(all_contractions(held))
        assert got == want
        assert [d.slots for d in got] == [d.slots for d in want]


def test_orbit_sizes_count_every_pairing(series):
    """The orbit sizes of a term sum to its number of partial pairings, and
    each orbit's size is the number of pairings with its run table."""
    for t in _orbit_oracle_terms(series):
        phi_runs, bar_runs = _runs(t)
        g = grading(t)
        orbits = {}
        for matching, size in orbit_matchings(phi_runs, bar_runs):
            table = _table(matching, phi_runs, bar_runs)
            assert table not in orbits
            orbits[table] = size
        assert sum(orbits.values()) == sum(
            contraction_count(g.r, g.r_bar, j)
            for j in range(min(g.r, g.r_bar) + 1))
        if sum(orbits.values()) <= 5000:
            _, leaves = term_census(t)
            phis = [l.pos for l in leaves if l.species == PHI]
            bars = [l.pos for l in leaves if l.species == PHIBAR]
            brute = Counter(_table(m, phi_runs, bar_runs)
                            for m in partial_matchings(phis, bars))
            assert brute == orbits


def test_complete_orbits_are_the_full_size_orbits(series):
    """orbit_matchings(complete=True) yields, in the same order, the orbits
    of the full enumeration that pair every leaf; one-slot censuses and
    two-slot censuses of the two-point monomial pairs through order 3."""
    censuses = [term_census(t) for t in _orbit_oracle_terms(series)]
    s = expand(3)
    censuses += [term_census(ta, tb)
                 for a, b in ((SPINOR, COSPINOR), (COSPINOR, SPINOR))
                 for k in range(4) for k1 in range(k + 1)
                 for ta in s.coefficient(k1, a)
                 for tb in s.coefficient(k - k1, b)]
    nonempty = 0
    for _, leaves in censuses:
        phi_runs, bar_runs = leaf_runs(leaves, PHI), leaf_runs(leaves, PHIBAR)
        r = sum(map(len, phi_runs))
        if r != sum(map(len, bar_runs)):
            continue
        full = [o for o in orbit_matchings(phi_runs, bar_runs)
                if len(o[0]) == r]
        assert list(orbit_matchings(phi_runs, bar_runs, complete=True)) == full
        nonempty += bool(full)
    assert nonempty == 98  # 80 monomial pairs, 12 random terms, 6 bare


def test_leaf_runs_group_each_vertex_in_canonical_terms(series):
    """In a canonical term the Phi leaves of a vertex are adjacent siblings,
    and so are its PhiBar leaves: one run per species and vertex."""
    for branch in (SPINOR, COSPINOR):
        for k in range(5):
            for t in series.coefficient(k, branch):
                _, leaves = term_census(t)
                for species in (PHI, PHIBAR):
                    runs = leaf_runs(leaves, species)
                    vertices = [leaves[run[0]].vertex for run in runs]
                    assert len(set(vertices)) == len(vertices)
                    assert sum(map(len, runs)) == \
                        sum(1 for l in leaves if l.species == species)
    assert _runs(_bare(3, 2)) == ([[0, 1, 2]], [[3, 4]])


def test_deformed_entries_are_canonical_under_their_key(series):
    """DeformedSum.extend merges entries without canonicalizing them again;
    that needs every entry to be its own canonical form."""
    gf = {k: gamma_Q(series.coefficient(k, SPINOR)) for k in range(4)}
    gf_bar = {k: gamma_Q(series.coefficient(k, COSPINOR)) for k in range(4)}
    sums = list(gf.values()) + list(gf_bar.values()) + \
        [_pointwise_cubic(gf_bar, gf, k) for k in range(1, 4)]
    checked = 0
    for ds in sums:
        for d in ds:
            assert canonicalize_diagram(d).slots == d.slots
            checked += 1
    assert checked == 378


def test_extend_equals_adding_each_entry(series):
    a = gamma_Q(series.coefficient(2, SPINOR))
    b = gamma_Q(series.coefficient(3, SPINOR))
    for scale in (1, -1, Fraction(-2, 3), 0):
        got = DeformedSum(a.diagrams())
        got.extend(b, scale=scale)
        want = DeformedSum(a.diagrams())
        for d in b:
            want.add(d.scaled(scale))
        assert got == want
    cancelled = DeformedSum(b.diagrams())
    cancelled.extend(b, scale=-1)
    assert cancelled.is_zero()
