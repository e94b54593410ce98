from fractions import Fraction

import pytest

from sthirring.deformation import (
    CountertermOperator, _argport,
    _pointwise_cubic, apply_operator, brute_force_contractions, bullet_cross,
    contraction_count, expectation, expectation_report, extract_counterterms,
    gamma_Q, gamma_Q_convolved, partial_matchings, term_census, two_point,
)
from sthirring.diagrams import (
    DeformedSum, Diagram, canonical_key, convolved, deformedsum_from_json,
    deformedsum_to_json, diagram_from_json, diagram_to_json, free_leaves,
    graph_counts, iter_children, to_dot, to_graph,
)
from sthirring.errors import InvariantError, UsageError
from sthirring.perturbation import COSPINOR, SPINOR, expand
from sthirring.properties import run_all
from sthirring.terms import (
    GPSI, GPSIBAR, PHI, PHIBAR,
    Conv, Gamma, Leaf, Prod, Term, TermSum,
    canonical_key as term_key, canonicalize, convolve, phi, phibar, product,
)


@pytest.fixture(scope="module")
def series():
    return expand(4)


def D(*slots, coeff=1):
    return Diagram(tuple(slots), Fraction(coeff))


def test_identity_on_single_generators():
    for t in (phi(0), phibar(0)):
        ds = gamma_Q(canonicalize(t))
        assert len(ds) == 1
        d = ds.diagrams()[0]
        assert d.coeff == 1
        assert len(free_leaves(d)) == 1


def test_pair_monomial_gets_diagonal_covariance():
    ds = gamma_Q(canonicalize(product(phi(0), phibar(0))))
    want = DeformedSum([
        D((("free", PHI), ("free", PHIBAR))),
        D((("qloop", "Q"),)),
    ])
    assert ds == want


def test_gamma_bilinear_gets_tagged_loop():
    t = canonicalize(Term(1, Prod((Leaf(PHIBAR, 0), Gamma(1, 0, 2), Leaf(PHI, 2)))))
    ds = gamma_Q(t)
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


def test_non_canonical_input_rejected():
    t = Term(1, Prod((Leaf(PHIBAR, 5), Leaf(PHI, 3))))  # non-canonical ids
    with pytest.raises(InvariantError):
        gamma_Q(t)


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
            ds = gamma_Q(canonicalize(Term(1, node)))
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
            wrapped = canonicalize(convolve(GPSI, t))
            assert gamma_Q(wrapped) == gamma_Q_convolved(GPSI, t)


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
        assert expectation(series, k).is_zero()


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
    h1 = H[1]
    assert len(h1.ops) == 1
    term = h1.as_term()
    assert term.coeff == 1
    from sthirring.terms import Const
    assert term_key(term) == term_key(Term(1, Const("Ctilde", 1, 0, 1)))


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
            source = gf if _argport(h)[0] == PHI else gf_bar
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
    data = deformedsum_to_json(tp[1])
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


def test_renormalization_shift_grading_constraint(series):
    from sthirring.deformation import RenormalizationShift, shifted_gamma_Q
    shift = RenormalizationShift("Ctilde", 1, 0, "Ctilde_prime")
    # F_1 lies in degree (2, 1): r <= j+1 = 2, so the shift vanishes there
    assert shift.vanishes_on(2, 1)
    same = shifted_gamma_Q(series.coefficient(1, SPINOR), shift)
    assert same == gamma_Q(series.coefficient(1, SPINOR))
    # degree (3, 2) coefficients are shifted: retagged variants appear
    low = RenormalizationShift("Ctilde", 0, 0, "Ctilde_prime")
    assert not low.vanishes_on(3, 2)
    shifted = shifted_gamma_Q(series.coefficient(2, SPINOR), low)
    base = gamma_Q(series.coefficient(2, SPINOR))
    assert len(shifted) > len(base)
    labels = {ch[1] for d in shifted for ch, _ in iter_children(d)
              if ch[0] == "ctloop"}
    assert "Ctilde_prime" in labels


def test_expectation_vanishes_cospinor_branch(series):
    for k in range(4):
        ds, examined = expectation_report(series, k, COSPINOR)
        assert ds.is_zero() and examined > 0


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
    """For every monomial of F_0..F_3, the coefficients of gamma_Q(t) summed
    per number of contracted pairs equal the census closed form: each
    matching weighs t.coeff, halved once per tagged coincident pair.  A
    canonicalizer that lost or double-counted a diagram would break a sum
    (all weights are positive, so nothing cancels)."""
    series = expand(3)
    checked = 0
    for branch in (SPINOR, COSPINOR):
        for k in range(4):
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
                for d in gamma_Q(t):
                    n = graph_counts(d)["pair_points"]
                    got[n] = got.get(n, 0) + d.coeff
                assert got == want
                checked += 1
    assert checked == 2 * (1 + 1 + 3 + 12)


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


def test_deformed_coefficients_shared_within_a_series():
    from sthirring.deformation import deformed_coefficient
    s = expand(2)
    a = deformed_coefficient(s, 2, COSPINOR)
    assert deformed_coefficient(s, 2, COSPINOR) is a
    assert a == gamma_Q(s.coefficient(2, COSPINOR))
    assert deformed_coefficient(expand(2), 2, COSPINOR) is not a
    with pytest.raises(UsageError):
        deformed_coefficient(s, 3)
