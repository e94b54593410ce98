"""Symbolic perturbation, contraction combinatorics and power counting for
the stochastic Thirring model, with a numerical backend for the closed-form
kernels in one and two dimensions."""

from .clifford import GammaRep, build_gamma_rep, contract_index, verify_clifford
from .deformation import (
    contraction_count, expectation, extract_counterterms, gamma_Q, two_point,
)
from .perturbation import (
    COSPINOR, SPINOR, PerturbativeSeries, expand, field_counts,
    graph_statistics, monomial_count,
)
from .power_counting import (
    DivergenceReport, classify, divergence_closed_form, divergence_degree,
    sd_propagator,
)
from .terms import Grading, Term, TermSum, canonicalize, convolve, grading, product

__all__ = [
    "GammaRep", "build_gamma_rep", "contract_index", "verify_clifford",
    "contraction_count", "expectation", "extract_counterterms", "gamma_Q",
    "two_point",
    "COSPINOR", "SPINOR", "PerturbativeSeries", "expand", "field_counts",
    "graph_statistics", "monomial_count",
    "DivergenceReport", "classify", "divergence_closed_form",
    "divergence_degree", "sd_propagator",
    "Grading", "Term", "TermSum", "canonicalize", "convolve", "grading",
    "product",
]

__version__ = "0.1.0"
