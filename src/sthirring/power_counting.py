"""Scaling degrees and divergence classification of contracted graphs.

Every propagator-type edge of a maximally contracted graph scales like
d-1 near the total diagonal, so a graph with L edges and N counted points
(internal vertices, pair collapse points and the surviving leaf endpoint,
but never the root) has scaling degree L*(d-1) against a diagonal of
codimension (N-1)*d.  The degree of divergence is their difference,

    rho = L*(d-1) - (N-1)*d,

and with the order-k structure counts N = 2k+1, L = 3k+1 this collapses to
the closed form rho(k, d) = (d-3)*(2k+1)/2 + (d+1)/2.  Negative rho means
the extension to the diagonal is unique; rho >= 0 flags a kernel singular
enough that an extension must be chosen, which is a sufficient-singularity
verdict rather than a proof of divergence (the one-dimensional model has a
rho = 0 graph with a locally integrable kernel).

The linear coefficient (d-3)/2 is negative exactly for d < 3: there the
divergent set is finite (subcritical), at d = 3 rho is constantly 2
(critical), and above it grows with the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .deformation import _diagram_for_matching, term_pairings
from .diagrams import DeformedSum, Diagram, graph_counts
from .errors import InvariantError, UsageError
from .perturbation import SPINOR, PerturbativeSeries
from .terms import grading

REGULAR = "regular"
DIVERGENT = "borderline_or_divergent"


@dataclass(frozen=True)
class DivergenceReport:
    order: int
    dimension: int
    vertices: int           # N: counted points of the contracted graph
    edges: int              # L: propagator edges including leaf stems
    scaling_degree: int
    codimension: int
    rho: Fraction
    verdict: str
    n_graphs: int = 1

    def as_row(self) -> dict:
        return {
            "k": self.order, "d": self.dimension, "N": self.vertices,
            "L": self.edges, "sd": self.scaling_degree,
            "codim": self.codimension,
            "rho": str(self.rho), "verdict": self.verdict,
            "graphs": self.n_graphs,
        }


def sd_propagator(d: int) -> int:
    """Scaling degree of either fundamental solution at the diagonal."""
    if d < 1:
        raise UsageError("dimension must be >= 1")
    return d - 1


def verdict_for(rho: Fraction) -> str:
    return REGULAR if rho < 0 else DIVERGENT


def divergence_degree(graph: Diagram, d: int, order: int | None = None) -> DivergenceReport:
    """Direct power counting of one maximally contracted admissible graph."""
    if d < 1:
        raise UsageError("dimension must be >= 1")
    if len(graph.slots) != 1:
        raise UsageError("admissible graphs are single-slot")
    counts = graph_counts(graph)
    if counts["free_points"] > 1:
        raise UsageError("graph is not maximally contracted")
    if counts["const_insertions"]:
        raise UsageError("operator insertions are not admissible graph data")
    n, l = counts["N"], counts["L"]
    sd = l * (d - 1)
    codim = (n - 1) * d
    rho = Fraction(sd - codim)
    k = order if order is not None else (n - 1) // 2
    return DivergenceReport(k, d, n, l, sd, codim, rho, verdict_for(rho))


def divergence_closed_form(k: int, d: int) -> Fraction:
    """rho(k, d) from N = 2k+1, L = 3k+1."""
    n = 2 * k + 1
    return Fraction((d - 3) * n, 2) + Fraction(d + 1, 2)


def subcritical(d: int) -> bool:
    """Finitely many divergent graphs: the N-coefficient of rho is negative."""
    return Fraction(d - 3, 2) < 0


def maximal_contractions(series: PerturbativeSeries, k: int,
                         branch: str = SPINOR):
    """All maximally contracted diagrams of the order-k coefficient.

    Yields one diagram per contraction pattern (no canonical merging);
    every diagram keeps exactly one free leaf by parity of 2k+1.  Only
    matchings of the maximal size min(r, r_bar) are enumerated.
    """
    for t in series.coefficient(k, branch):
        g = grading(t)
        template, leaves, matchings = term_pairings(t, min(g.r, g.r_bar))
        for matching in matchings:
            yield _diagram_for_matching(t, template, leaves, matching)


def classify(d: int, K: int, series: PerturbativeSeries) -> list[DivergenceReport]:
    """Power-counting verdicts for all admissible graphs of `series`
    through order K.

    Every generated graph is checked against the counting laws N = 2k+1 and
    L = 3k+1 and against the closed-form degree of divergence; one report
    per order is returned since all graphs of an order share the counts.
    """
    reports = []
    for k in range(K + 1):
        want = divergence_closed_form(k, d)
        n_graphs = 0
        rep = None
        for g in maximal_contractions(series, k):
            n_graphs += 1
            r = divergence_degree(g, d, order=k)
            if (r.vertices, r.edges) != (2 * k + 1, 3 * k + 1):
                raise InvariantError(
                    f"order {k} graph has (N,L)=({r.vertices},{r.edges})")
            if r.rho != want:
                raise InvariantError(
                    f"order {k} graph rho {r.rho} != closed form {want}")
            rep = r
        if rep is None:  # pragma: no cover
            raise InvariantError(f"no maximal graphs at order {k}")
        reports.append(DivergenceReport(
            k, d, rep.vertices, rep.edges, rep.scaling_degree,
            rep.codimension, rep.rho, rep.verdict, n_graphs))
    return reports


def distinct_maximal_graphs(series: PerturbativeSeries, k: int,
                            branch: str = SPINOR) -> DeformedSum:
    """Canonically merged maximal diagrams (slower; for inspection/export)."""
    ds = DeformedSum(origin=f"maximal[{branch}]", order=k)
    for g in maximal_contractions(series, k, branch):
        ds.add(g)
    return ds
