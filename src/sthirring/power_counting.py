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

The graphs are the unmerged maximal pairings of each monomial, counted
from its grading; one graph per order is built as a Diagram by
`deformation.pairing_diagram` and counted directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, groupby, permutations
from operator import itemgetter

from .deformation import contraction_count, pairing_diagram
from .diagrams import Diagram, free_leaves, graph_counts
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


def divergence_degree(graph: Diagram, d: int) -> DivergenceReport:
    """Direct power counting of one maximally contracted admissible graph;
    its order k is read off N = 2k+1."""
    sd_edge = sd_propagator(d)
    if len(graph.slots) != 1:
        raise UsageError("admissible graphs are single-slot")
    counts = graph_counts(graph)
    if counts["free_points"] > 1:
        raise UsageError("graph is not maximally contracted")
    n, l = counts["N"], counts["L"]
    sd = l * sd_edge
    codim = (n - 1) * d
    rho = Fraction(sd - codim)
    return DivergenceReport((n - 1) // 2, d, n, l, sd, codim, rho,
                            verdict_for(rho))


def divergence_closed_form(k: int, d: int) -> Fraction:
    """rho(k, d) from N = 2k+1, L = 3k+1."""
    n = 2 * k + 1
    return Fraction((d - 3) * n, 2) + Fraction(d + 1, 2)


def maximal_contractions(series: PerturbativeSeries, k: int):
    """Every maximal pairing of the order-k spinor coefficient as
    (monomial, counts, ps, qs), with no Diagram built: the ps[i]-th of the
    monomial's r Phi leaves pairs with its qs[i]-th PhiBar leaf, for
    s = min(r, r_bar) pairs: each choice of Phi leaves, in order, times
    each arrangement of PhiBar leaves (`deformation.pairing_diagram`
    builds one).  Each pair is one point of the Diagram and the
    f = r + r_bar - 2s other leaves stay free, so all pairings of a
    monomial with v propagators share one `graph_counts` dict:
    N = v + s + f, L = v + 2s + f.
    """
    for t in series.coefficient(k, SPINOR):
        g = grading(t)
        s = min(g.r, g.r_bar)
        v, f = g.l + g.l_bar, g.r + g.r_bar - 2 * s
        counts = {"vertices": v, "pair_points": s, "free_points": f,
                  "N": v + s + f, "L": v + 2 * s + f}
        for ps in combinations(range(g.r), s):
            for qs in permutations(range(g.r_bar), s):
                yield t, counts, ps, qs


def classify(d: int, K: int, series: PerturbativeSeries) -> list[DivergenceReport]:
    """Power-counting verdicts for all admissible graphs of `series`
    through order K.

    Each monomial must have the counts N = 2k+1, L = 3k+1 and one free
    leaf, and `contraction_count` graphs.  rho depends on (N, L, d) only,
    so each order has one report: the direct count of its first graph's
    Diagram, checked against the census and the closed-form rho.
    """
    reports = []
    for k in range(K + 1):
        law = (2 * k + 1, 3 * k + 1, 1)
        rep, n_graphs = None, 0
        graphs = maximal_contractions(series, k)
        for t, items in groupby(graphs, itemgetter(0)):
            _, c, ps, qs = next(items)
            if rep is None:  # one Diagram per order, counted directly
                first = pairing_diagram(t, ps, qs)
                rep = divergence_degree(first, d)
                direct = (rep.vertices, rep.edges, len(free_leaves(first)))
            g = grading(t)
            pairings = contraction_count(g.r, g.r_bar, c["pair_points"])
            made = 1 + sum(1 for _ in items)
            got = ((c["N"], c["L"], c["free_points"]), direct, made)
            want = (law, law, pairings)
            if got != want:
                raise InvariantError(
                    f"order {k} graphs have ((N, L, free leaves) by census, "
                    f"directly; pairings) {got}, not {want}")
            n_graphs += made
        want = divergence_closed_form(k, d)
        if rep.rho != want:
            raise InvariantError(
                f"order {k} graph rho {rep.rho} != closed form {want}")
        reports.append(replace(rep, n_graphs=n_graphs))
    return reports
