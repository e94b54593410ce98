"""Perturbative solution coefficients of the functional Thirring equation.

The spinor branch solves Psi = Phi + lambda G_psi * [(PsiBar g_mu Psi) g^mu Psi]
order by order; the cospinor branch is the mirror image.  Order zero is the
bare generator, and for k >= 1

    F_k = sum_{k1+k2+k3=k-1} G_psi * [(Ft_{k1} g_mu F_{k2}) g^mu F_{k3}]

with the cubic vertex carrying the pair of index-contracted gamma insertions.
The same generic rule is used for k = 1 and k = 2; agreement with the
separately stated low-order expressions is covered by tests.  `expand`
builds nothing up front: each coefficient is built on its first read, so
the top-order coefficient of a branch no command reads (273 monomials at
K = 5) is never built.  Each monomial comes from `vertex_term` in
canonical form and is merged under its key, never canonicalized again.

Every monomial of F_k has k+1 spinor and k cospinor leaves (the cospinor
branch swaps the two), k interaction vertices, each with its trunk
propagator, and, counting leaf stems and trunks, 3k+1 graph edges.
`check_structure` recomputes these counts from the actual trees, in one
walk per monomial, and any deviation raises an InvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError, UsageError
from .terms import (
    GPSI, GPSIBAR, PHI, Conv, Leaf, Prod, TermSum, phi, phibar, vertex_term,
)

ORDER_CEILING = 6

SPINOR = "spinor"
COSPINOR = "cospinor"


@dataclass
class PerturbativeSeries:
    """Coefficients of both branches up to max_order, canonically merged.

    Each coefficient is built the first time it is read and kept: F_k of
    one branch reads the lower orders of both, so a consumer that reads
    one branch at the top order never builds the other's top coefficient.
    The series holds terms only; each consumer deforms what it reads."""

    max_order: int
    _built: dict[tuple[int, str], TermSum] = field(
        default_factory=dict, init=False, repr=False)

    def coefficient(self, k: int, branch: str = SPINOR) -> TermSum:
        if not 0 <= k <= self.max_order:
            raise UsageError(f"order {k} outside 0..{self.max_order}")
        if branch not in (SPINOR, COSPINOR):
            raise InvariantError(f"unknown branch {branch!r}")
        got = self._built.get((k, branch))
        if got is None:
            got = self._built[k, branch] = self._build(k, branch)
        return got

    def _build(self, k: int, branch: str) -> TermSum:
        """F_k (or Ft_k): the cubic recursion over every split k1+k2+k3 =
        k-1, summed in the order k1, k2, then the cospinor, spinor and
        branch factors."""
        if k == 0:
            return TermSum([phi(0) if branch == SPINOR else phibar(0)])
        kind = GPSI if branch == SPINOR else GPSIBAR
        out = TermSum()
        for k1 in range(k):
            fa = self.coefficient(k1, COSPINOR)
            for k2 in range(k - k1):
                fb = self.coefficient(k2, SPINOR)
                fc = self.coefficient(k - 1 - k1 - k2, branch)
                for ta in fa:
                    for tb in fb:
                        for tc in fc:
                            out.add_keyed(vertex_term(ta, tb, tc, kind))
        return out


def expand(K: int) -> PerturbativeSeries:
    """The series F_0..F_K of both branches, each coefficient built by the
    cubic recursion when first read; K below 0 or above ORDER_CEILING is a
    UsageError."""
    if K < 0:
        raise UsageError("order must be nonnegative")
    if K > ORDER_CEILING:
        raise UsageError(f"order {K} above ceiling {ORDER_CEILING}")
    return PerturbativeSeries(K)


def check_structure(series: PerturbativeSeries, k: int,
                    branch: str) -> tuple[int, int, int, int]:
    """(spinor leaves, cospinor leaves, vertices, edges incl. leaf stems
    and trunks) = (k+1, k, k, 3k+1), the leaf counts swapped on the
    cospinor branch, verified on every monomial with one walk each; every
    vertex must have its trunk."""
    want = ((k + 1, k) if branch == SPINOR else (k, k + 1)) + (k, 3 * k + 1)
    for t in series.coefficient(k, branch):
        r = r_bar = vertices = trunks = 0
        stack = [t.node]
        while stack:
            n = stack.pop()
            if isinstance(n, Leaf):
                if n.species == PHI:
                    r += 1
                else:
                    r_bar += 1
            elif isinstance(n, Conv):
                trunks += 1
                stack.append(n.inner)
            elif isinstance(n, Prod):
                vertices += 1
                stack.extend(n.children)
        if trunks != vertices:
            raise InvariantError("trunk/vertex mismatch in recursion monomial")
        got = (r, r_bar, vertices, r + r_bar + trunks)
        if got != want:
            raise InvariantError(
                f"order {k} monomial has structure {got}, expected {want}")
    return want
