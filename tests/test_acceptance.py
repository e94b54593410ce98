"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (with its runtime against the stated
budget) once every assertion of the criterion has held; run with `pytest -s
tests/test_acceptance.py` to see the lines.
"""

import json
import random
import time
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from sthirring.clifford import build_gamma_rep, clifford_defect
from sthirring.deformation import (
    brute_force_contractions, contraction_count, expectation_report,
    extract_counterterms, gamma_Q, two_point,
)
from sthirring.diagrams import DeformedSum, Diagram, free_leaves
from sthirring.kernels import (
    KernelParams, TestFunction, clipped_integral, dirac_kernel_2d,
    greens_identity_residual, q_kernel_1d, scaling_degree_probe,
)
from sthirring.perturbation import COSPINOR, SPINOR, check_structure, expand
from sthirring.power_counting import (
    DIVERGENT, REGULAR, classify, divergence_closed_form, divergence_degree,
    sd_propagator,
)
from sthirring.terms import (
    GPSI, GPSIBAR, PHI, PHIBAR, Conv, Gamma, Leaf, Prod, Term, TermSum,
)

from deep_checks import MANIFEST, counterterm_flags, run_check
from helpers import mirror, run_argv


@pytest.fixture(scope="module")
def series():
    return expand(5)


class _Timer:
    def __init__(self, number, name, budget):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None and elapsed <= self.budget:
            print(f"\nACCEPTANCE {self.number} ({self.name}): PASS "
                  f"[{elapsed:.2f} s <= {self.budget:.0f} s]")
        else:
            status = "FAIL" if exc_type else f"OVER BUDGET ({elapsed:.2f} s)"
            print(f"\nACCEPTANCE {self.number} ({self.name}): {status}")
        assert elapsed <= self.budget, f"criterion {self.number} over budget"


def test_criterion_1_clifford_suite():
    with _Timer(1, "clifford suite", 1.0):
        for d in range(1, 9):
            rep = build_gamma_rep(d)
            assert clifford_defect(rep) <= 1e-12
            contracted = sum(g @ g for g in rep.gammas)
            assert np.max(np.abs(contracted - d * rep.identity)) <= 1e-12


def test_criterion_2_recursion_fidelity():
    with _Timer(2, "recursion fidelity", 10.0):
        series = expand(5)
        # golden encoding of the three order-2 summands
        def f1_node(b):
            return Conv(GPSI, b + 8, b + 5, Prod((
                Leaf(PHIBAR, b + 0), Gamma(b + 1, b + 0, b + 2),
                Leaf(PHI, b + 2), Gamma(b + 1, b + 5, b + 6),
                Leaf(PHI, b + 6))))

        f1 = f1_node(20)
        f1bar = mirror(Term(1, f1)).node
        golden = TermSum([
            Term(1, Conv(GPSI, 40, 3, Prod((
                Leaf(PHIBAR, 0), Gamma(1, 0, 2), Leaf(PHI, 2),
                Gamma(1, 3, 28), f1)))),
            Term(1, Conv(GPSI, 40, 3, Prod((
                f1bar, Gamma(1, 28, 2), Leaf(PHI, 2),
                Gamma(1, 3, 4), Leaf(PHI, 4))))),
            Term(1, Conv(GPSI, 40, 3, Prod((
                Leaf(PHIBAR, 0), Gamma(1, 0, 28), f1,
                Gamma(1, 3, 4), Leaf(PHI, 4))))),
        ])
        assert series.coefficient(2, SPINOR) == golden
        assert len(series.coefficient(2)) == 3
        for k in range(6):
            assert check_structure(series, k, SPINOR) == \
                (k + 1, k, k, 3 * k + 1)
            assert check_structure(series, k, COSPINOR) == \
                (k, k + 1, k, 3 * k + 1)


def test_criterion_3_contraction_combinatorics():
    with _Timer(3, "contraction combinatorics", 5.0):
        for r in range(7):
            for rb in range(7):
                for k in range(min(r, rb) + 1):
                    assert contraction_count(r, rb, k) == \
                        brute_force_contractions(r, rb, k)


def test_criterion_4_vanishing_expectations(series):
    with _Timer(4, "vanishing expectations", 60.0):
        for k in range(5):
            ds, examined = expectation_report(series, k, SPINOR)
            assert ds.is_zero(), f"order {k} expectation not empty"
            assert examined == sum(
                contraction_count(k + 1, k, j) for j in range(k + 1)
            ) * len(series.coefficient(k, SPINOR))


def test_criterion_4_expectation_at_order_6_through_the_cli():
    """`expect --order 6 --format json`: the empty sum, counted over every
    contraction pattern of the FC(6) = C(18, 6)/13 monomials of F_6, each
    with 7 Phi and 6 Phi-bar leaves (sum over j of j! C(7, j) C(6, j))."""
    with _Timer(4, "vanishing expectation at order 6", 60.0):
        rc, out, err = run_argv("expect --order 6 --format json")
        assert (rc, err) == (0, "")
        report = json.loads(out)
        monomials = comb(18, 6) // 13
        patterns = sum(factorial(j) * comb(7, j) * comb(6, j)
                       for j in range(7))
        assert (monomials, patterns) == (1_428, 37_633)
        assert report == {"order": 6, "branch": "psi", "value": "0",
                          "surviving_diagrams": 0,
                          "patterns_examined": monomials * patterns}
        assert report["patterns_examined"] == 53_739_924


def test_criterion_5_two_point_structure(series):
    with _Timer(5, "two-point structure", 10.0):
        def D(*slots, coeff=1):
            return Diagram(tuple(slots), Fraction(coeff))

        tp = two_point(series, SPINOR, COSPINOR, 1)
        assert tp[0] == DeformedSum(
            [D((("pair", 0, PHI, "Q"),), (("pair", 0, PHIBAR, "Q"),))])
        # order one: the covariance dressed by the tagged vertex loop of each
        # branch, the spinor dressing with G_psi/Ctilde on the first factor
        # and the cospinor dressing with G_psibar/C on the second
        assert tp[1] == DeformedSum([
            D((("conv", GPSI, (("ctloop", "Ctilde"), ("pair", 0, PHI, "Q"))),),
              (("pair", 0, PHIBAR, "Q"),)),
            D((("pair", 0, PHI, "Q"),),
              (("conv", GPSIBAR, (("ctloop", "C"), ("pair", 0, PHIBAR, "Q"))),)),
        ])
        tpm = two_point(series, COSPINOR, SPINOR, 1)
        assert tpm[0] == DeformedSum(
            [D((("pair", 0, PHIBAR, "Qt"),), (("pair", 0, PHI, "Qt"),))])
        assert tpm[1] == DeformedSum([
            D((("conv", GPSIBAR, (("ctloop", "C"), ("pair", 0, PHIBAR, "Qt"))),),
              (("pair", 0, PHI, "Qt"),)),
            D((("pair", 0, PHIBAR, "Qt"),),
              (("conv", GPSI, (("ctloop", "Ctilde"), ("pair", 0, PHI, "Qt"))),)),
        ])
        assert two_point(series, SPINOR, SPINOR, 0)[0].is_zero()
        assert two_point(series, COSPINOR, COSPINOR, 0)[0].is_zero()


def test_criterion_6_counterterm_extraction(series):
    with _Timer(6, "counterterm extraction", 30.0):
        H = extract_counterterms(series, 2)
        # H_1 = Ctilde: one operator, the tagged loop times its argument
        assert H[1].ops == DeformedSum([Diagram(
            ((("argport", PHI), ("ctloop", "Ctilde")),), Fraction(1))])
        for k in (1, 2):
            assert H[k].even and H[k].residual.is_zero()
            assert all(len(free_leaves(d)) % 2 == 0 for d in H[k].ops)


def test_criterion_7_power_counting(series):
    with _Timer(7, "power counting", 60.0):
        series6 = expand(6)  # the subcritical range d <= 2 one order further
        for d in (1, 2, 3, 4):
            K = 6 if d <= 2 else 5
            # re-checks every monomial's graphs
            reports = classify(d, K, series=series6 if d <= 2 else series)
            rhos = [r.rho for r in reports]
            assert rhos == [divergence_closed_form(k, d) for k in range(K + 1)]
            assert reports[-1].n_graphs == (7197120 if K == 6 else 196560)
            divergent = [r.order for r in reports if r.verdict == DIVERGENT]
            if d == 1:
                assert divergent == [0]
            elif d == 2:
                assert divergent == [0, 1]
            elif d == 3:
                assert divergent == list(range(6)) and set(rhos) == {2}
            else:
                assert all(b > a for a, b in zip(rhos, rhos[1:]))


def test_criterion_8_d1_kernel_identity():
    with _Timer(8, "d=1 kernel identity", 5.0):
        rng = random.Random(2024)
        for m in (0.5, 1.0, 2.0):
            params = KernelParams(1, m)
            for _ in range(20):
                f = TestFunction((rng.uniform(-2 * m, 2 * m),),
                                 rng.uniform(0.1, m), rng.uniform(0.5, 2.0))
                got = q_kernel_1d(params, f).real
                want = clipped_integral(params, f)
                # relative 1e-8, floored at the quadrature's absolute
                # tolerance for bumps grazing [-m, m] in their far tail
                assert abs(got - want) <= max(1e-8 * abs(want), 1e-10)


def test_criterion_9_scaling_degree_probe():
    with _Timer(9, "scaling-degree probe", 30.0):
        inv = scaling_degree_probe(
            lambda x: 1.0 / np.hypot(x[..., 0], x[..., 1]), (1.0, 0.7))
        assert inv.conclusive and abs(inv.sd - 1.0) <= 0.01
        const = scaling_degree_probe(lambda x: 3.7, (1.0, 0.7))
        assert const.conclusive and abs(const.sd) <= 0.01
        params = KernelParams(2, 1.0)
        probe = scaling_degree_probe(lambda x: dirac_kernel_2d(params, x),
                                     (1.0, 0.7))
        assert probe.conclusive
        assert abs(probe.sd - 1.0) <= 0.1  # sd = d - 1 at d = 2


def test_kernel_check_probe_reads_the_power_counting_degree():
    """The numerical layer's d = 2 Dirac probe measures the propagator
    scaling degree that power counting assumes, sd(G) = d - 1."""
    rc, out, _ = run_argv("kernel-check --dim 2")
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] and report["dirac_scaling_degree"]["conclusive"]
    assert round(report["dirac_scaling_degree"]["estimate"]) == sd_propagator(2)


def test_criterion_10_d2_green_identity():
    with _Timer(10, "d=2 Green identity", 5.0):
        f = TestFunction((0.3, -0.2), 0.4, 1.0)
        for m in (0.0, 1.0):  # the kernel-check case, for both masses
            assert greens_identity_residual(KernelParams(2, m), f) <= 1e-6


def test_criterion_11_counterterms_at_order_5():
    """`counterterms --order 5` through the CLI, in a process of its own:
    the stdout digest, stderr and exit code pinned in
    `tests/deep_manifest.json`, and H_1..H_5 even with zero residuals."""
    name = "counterterms --order 5"
    with _Timer(11, "counterterms at order 5", 40.0):
        got = run_check(name, counterterm_flags)
        want = json.loads(MANIFEST.read_text())[name]
        assert {field: got[field] for field in want} == want
        assert got["problems"] == []
