import pytest

from sthirring.errors import InvariantError, UsageError
from sthirring.perturbation import (
    COSPINOR, SPINOR, expand, field_counts, graph_statistics, mirror_branch, monomial_count,
    vertex_term,
)
from sthirring.terms import (
    GPSI, GPSIBAR, Conv, Gamma, Leaf, PHI, PHIBAR, Prod, Term,
    TermSum, canonical_key, canonicalize, grading, mirror, phi, phibar,
)


@pytest.fixture(scope="module")
def series():
    return expand(4)


def _f1_node(base):
    """Hand-encoded (G_psi * [(PhiBar g_mu Phi) g^mu Phi]) at index offset."""
    b = base
    return Conv(GPSI, b + 8, b + 5, Prod((
        Leaf(PHIBAR, b + 0), Gamma(b + 1, b + 0, b + 2), Leaf(PHI, b + 2),
        Gamma(b + 1, b + 5, b + 6), Leaf(PHI, b + 6))))


def test_order_zero_is_the_generator(series):
    assert series.coefficient(0, SPINOR) == TermSum([phi(0)])
    assert series.coefficient(0, COSPINOR) == TermSum([phibar(0)])


def test_f1_matches_hand_encoding(series):
    assert series.coefficient(1, SPINOR) == TermSum([Term(1, _f1_node(0))])


def test_f2_matches_the_three_hand_encoded_summands(series):
    f1 = _f1_node(20)

    def gpsi(body, out, inn):
        return Term(1, Conv(GPSI, out, inn, body))

    # (PhiBar g Phi) g F1
    s1 = gpsi(Prod((Leaf(PHIBAR, 0), Gamma(1, 0, 2), Leaf(PHI, 2),
                    Gamma(1, 3, 28), f1)), 40, 3)
    # (F1~ g Phi) g Phi, with F1~ the mirrored branch coefficient
    f1bar = mirror(Term(1, f1)).node
    s2 = gpsi(Prod((f1bar, Gamma(1, 28, 2), Leaf(PHI, 2),
                    Gamma(1, 3, 4), Leaf(PHI, 4))), 40, 3)
    # (PhiBar g F1) g Phi
    s3 = gpsi(Prod((Leaf(PHIBAR, 0), Gamma(1, 0, 28), f1,
                    Gamma(1, 3, 4), Leaf(PHI, 4))), 40, 3)
    golden = TermSum([s1, s2, s3])
    assert series.coefficient(2, SPINOR) == golden


def test_monomial_counts(series):
    assert [monomial_count(series, k) for k in range(5)] == [1, 1, 3, 12, 55]


def test_field_counts(series):
    for k in range(5):
        assert field_counts(series, k, SPINOR) == (k + 1, k)
        assert field_counts(series, k, COSPINOR) == (k, k + 1)


def test_graph_statistics(series):
    for k in range(5):
        assert graph_statistics(series, k) == (2 * k + 1, k, 3 * k + 1)


def test_parity_odd_total_degree(series):
    for k in range(5):
        for t in series.coefficient(k, SPINOR):
            g = grading(t)
            assert (g.r + g.r_bar) % 2 == 1


def test_mirror_symmetry(series):
    for k in range(5):
        assert mirror_branch(series, k) == series.coefficient(k, COSPINOR)


def test_outermost_node_is_convolution(series):
    for k in range(1, 5):
        for t in series.coefficient(k, SPINOR):
            assert isinstance(t.node, Conv) and t.node.kind == GPSI


def test_recursion_closure_via_fixed_point_iteration():
    # independent re-derivation: iterate Psi <- Phi + V(Psi) on truncated
    # polynomial series until stable, then compare order by order
    K = 3
    spin = {0: TermSum([phi(0)])}
    cosp = {0: TermSum([phibar(0)])}
    for k in range(1, K + 1):
        spin[k] = TermSum()
        cosp[k] = TermSum()
    for _ in range(K + 1):
        new_spin = {0: spin[0]}
        new_cosp = {0: cosp[0]}
        for k in range(1, K + 1):
            fs, fc = TermSum(), TermSum()
            for k1 in range(k):
                for k2 in range(k - k1):
                    k3 = k - 1 - k1 - k2
                    for ta in cosp[k1]:
                        for tb in spin[k2]:
                            for tc in spin[k3]:
                                fs.add(vertex_term(ta, tb, tc, GPSI))
                            for tc in cosp[k3]:
                                fc.add(vertex_term(ta, tb, tc, GPSIBAR))
            new_spin[k] = fs
            new_cosp[k] = fc
        spin, cosp = new_spin, new_cosp
    direct = expand(K)
    for k in range(K + 1):
        assert spin[k] == direct.coefficient(k, SPINOR)
        assert cosp[k] == direct.coefficient(k, COSPINOR)


def test_order_ceiling():
    with pytest.raises(UsageError):
        expand(7)
    with pytest.raises(UsageError):
        expand(-1)


def test_out_of_range_order(series):
    with pytest.raises(UsageError):
        series.coefficient(5)


@pytest.mark.parametrize("branch", ["psi", "bogus", ""])
def test_unknown_branch_rejected(series, branch):
    # only the two branch names select a coefficient; the CLI's "psi" is not one
    with pytest.raises(InvariantError, match="unknown branch"):
        series.coefficient(1, branch)


def test_convolve_composes_to_f1(series):
    # wrapping the bare cubic vertex with the propagator reproduces F_1,
    # with field counts (2, 1) and one propagator wrapper
    from sthirring.terms import convolve, canonicalize, canonical_key
    body = Prod((Leaf(PHIBAR, 0), Gamma(1, 0, 2), Leaf(PHI, 2),
                 Gamma(1, 3, 4), Leaf(PHI, 4)))
    wrapped = canonicalize(convolve(GPSI, Term(1, body)))
    (f1,) = series.coefficient(1, SPINOR).terms()
    assert canonical_key(wrapped) == canonical_key(f1)
    g = grading(wrapped)
    assert (g.r, g.r_bar, g.l, g.l_bar) == (2, 1, 1, 0)
