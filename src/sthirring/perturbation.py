"""Perturbative solution coefficients of the functional Thirring equation.

The spinor branch solves Psi = Phi + lambda G_psi * [(PsiBar g_mu Psi) g^mu Psi]
order by order; the cospinor branch is the mirror image.  Order zero is the
bare generator, and for k >= 1

    F_k = sum_{k1+k2+k3=k-1} G_psi * [(Ft_{k1} g_mu F_{k2}) g^mu F_{k3}]

with the cubic vertex carrying the pair of index-contracted gamma insertions.
The same generic rule is used for k = 1 and k = 2; agreement with the
separately stated low-order expressions is covered by tests.

Every monomial of F_k has k+1 spinor and k cospinor leaves, k interaction
vertices and, counting leaf stems and trunk propagators, 3k+1 graph edges.
These structural statistics are recomputed from the actual trees on demand
and any deviation raises an InvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError, UsageError
from .terms import (
    GPSI, GPSIBAR, UP, DOWN,
    Conv, Gamma, Leaf, Prod, Term, TermSum,
    grading, max_index, mirror, phi, phibar, rename_indices,
    sole_free_index,
)

ORDER_CEILING = 6

SPINOR = "spinor"
COSPINOR = "cospinor"


def vertex_term(ta: Term, tb: Term, tc: Term, kind: str = GPSI) -> Term:
    """One cubic interaction monomial.

    ta is a cospinor-branch term, tb a spinor-branch term; tc is spinor for
    the G_psi branch and cospinor for the G_psibar branch.  Index ranges are
    shifted apart, the gamma pair is wired in and the whole product is
    wrapped in the branch propagator.
    """
    na = ta.node
    off_b = max_index(na) + 1
    nb = rename_indices(tb.node, lambda i: i + off_b)
    off_c = max(max_index(na), max_index(nb)) + 1
    nc = rename_indices(tc.node, lambda i: i + off_c)

    a = sole_free_index(na, DOWN)
    b = sole_free_index(nb, UP)
    top = max(max_index(na), max_index(nb), max_index(nc)) + 1
    mu, rho1, out = top, top + 1, top + 2
    if kind == GPSI:
        c = sole_free_index(nc, UP)
        g2 = Gamma(mu, rho1, c)        # (g^mu)^{rho'}_{c}
    elif kind == GPSIBAR:
        c = sole_free_index(nc, DOWN)
        g2 = Gamma(mu, c, rho1)        # (g^mu)^{c}_{rho'}
    else:
        raise InvariantError(f"unknown branch propagator {kind!r}")
    body = Prod((na, Gamma(mu, a, b), nb, g2, nc))
    coeff = ta.coeff * tb.coeff * tc.coeff
    return Term(coeff, Conv(kind, out, rho1, body))


@dataclass
class PerturbativeSeries:
    """Coefficients of both branches up to max_order, canonically merged.

    `_deformed` holds the local deformation of each coefficient, keyed by
    (branch, k), for consumers that deform the same coefficients more than
    once; it is filled by `deformation` and never mutated after an entry is
    stored."""

    max_order: int
    spinor: dict[int, TermSum] = field(default_factory=dict)
    cospinor: dict[int, TermSum] = field(default_factory=dict)
    _deformed: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def coefficient(self, k: int, branch: str = SPINOR) -> TermSum:
        if not 0 <= k <= self.max_order:
            raise UsageError(f"order {k} outside 0..{self.max_order}")
        if branch == SPINOR:
            return self.spinor[k]
        if branch == COSPINOR:
            return self.cospinor[k]
        raise InvariantError(f"unknown branch {branch!r}")


def expand(K: int) -> PerturbativeSeries:
    """Build F_0..F_K and the mirrored branch via the cubic recursion;
    K below 0 or above ORDER_CEILING is a UsageError."""
    if K < 0:
        raise UsageError("order must be nonnegative")
    if K > ORDER_CEILING:
        raise UsageError(f"order {K} above ceiling {ORDER_CEILING}")
    s = PerturbativeSeries(K)
    s.spinor[0] = TermSum([phi(0)])
    s.cospinor[0] = TermSum([phibar(0)])
    for k in range(1, K + 1):
        fs, fc = TermSum(), TermSum()
        for k1 in range(k):
            for k2 in range(k - k1):
                k3 = k - 1 - k1 - k2
                for ta in s.cospinor[k1]:
                    for tb in s.spinor[k2]:
                        for tc in s.spinor[k3]:
                            fs.add(vertex_term(ta, tb, tc, GPSI))
                        for tc in s.cospinor[k3]:
                            fc.add(vertex_term(ta, tb, tc, GPSIBAR))
        s.spinor[k] = fs
        s.cospinor[k] = fc
    return s


def monomial_count(series: PerturbativeSeries, k: int, branch: str = SPINOR) -> int:
    return len(series.coefficient(k, branch))


def field_counts(series: PerturbativeSeries, k: int, branch: str = SPINOR) -> tuple[int, int]:
    """Leaf counts (spinors, cospinors), verified on every monomial."""
    want = (k + 1, k) if branch == SPINOR else (k, k + 1)
    for t in series.coefficient(k, branch):
        g = grading(t)
        if (g.r, g.r_bar) != want:
            raise InvariantError(
                f"order {k} monomial has field counts {(g.r, g.r_bar)}, expected {want}")
    return want


def _tree_statistics(t: Term) -> tuple[int, int, int]:
    """(leaves, interaction vertices, edges incl. leaf stems and trunks)."""
    leaves = vertices = convs = 0
    stack = [t.node]
    while stack:
        n = stack.pop()
        if isinstance(n, Leaf):
            leaves += 1
        elif isinstance(n, Conv):
            convs += 1
            stack.append(n.inner)
        elif isinstance(n, Prod):
            vertices += 1
            stack.extend(n.children)
    if convs != vertices:
        raise InvariantError("trunk/vertex mismatch in recursion monomial")
    return leaves, vertices, leaves + convs


def graph_statistics(series: PerturbativeSeries, k: int, branch: str = SPINOR) -> tuple[int, int, int]:
    """(leaves, internal vertices, edges) = (2k+1, k, 3k+1) for every monomial."""
    want = (2 * k + 1, k, 3 * k + 1)
    for t in series.coefficient(k, branch):
        got = _tree_statistics(t)
        if got != want:
            raise InvariantError(
                f"order {k} monomial has graph statistics {got}, expected {want}")
    return want


def mirror_branch(series: PerturbativeSeries, k: int) -> TermSum:
    """The spinor coefficient under the Phi<->PhiBar, G<->G* swap."""
    return series.coefficient(k, SPINOR).map(mirror)
