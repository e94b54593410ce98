import random

import numpy as np
import pytest

from sthirring import kernels
from sthirring.kernels import (
    KernelError, KernelParams, NumericalError, ProbeResult, SingularPointError,
    TestFunction, clipped_integral, dirac_kernel_2d, green_2d,
    greens_identity_residual, propagator_1d, q_kernel_1d, scaling_degree_probe,
    theta,
)


def test_propagator_product_is_indicator():
    for m in (0.5, 1.0, 2.0):
        p = KernelParams(1, m)
        xs = np.linspace(-3 * m, 3 * m, 601)
        xs = xs[np.abs(np.abs(xs) - m) > 1e-9]  # skip the boundary
        g, gb = propagator_1d(p, xs)
        prod = (g * gb).real
        want = np.where(np.abs(xs) <= m, 1.0, 0.0)
        assert np.max(np.abs(prod - want)) <= 1e-15  # |exp(-imx)exp(imx)| rounding
        assert np.max(np.abs((g * gb).imag)) <= 1e-15


def test_propagator_unit_modulus_inside_support():
    p = KernelParams(1, 1.0)
    g, _ = propagator_1d(p, -0.5)
    assert abs(abs(g) - 1.0) < 1e-15


def test_massless_1d_unsupported():
    p = KernelParams(1, 0.0)
    with pytest.raises(KernelError):
        propagator_1d(p, 0.1)


def test_q_kernel_inside_support():
    p = KernelParams(1, 1.0)
    f = TestFunction((0.0,), 0.5, 2.0)
    got = q_kernel_1d(p, f)
    want = clipped_integral(p, f)
    assert abs(got.real - want) <= 1e-10
    assert abs(got.imag) <= 1e-12


def test_q_kernel_disjoint_support():
    p = KernelParams(1, 1.0)
    f = TestFunction((5.0,), 0.5, 1.0)
    assert q_kernel_1d(p, f) == 0


def test_q_kernel_straddling_is_clipped():
    from scipy.integrate import quad
    p = KernelParams(1, 1.0)
    f = TestFunction((1.0,), 0.6, 1.0)
    got = q_kernel_1d(p, f).real
    full, _ = quad(f, f.support()[0][0], f.support()[1][0])
    assert got < full
    assert abs(got - clipped_integral(p, f)) <= 1e-10


def test_q_kernel_randomized_bumps():
    rng = random.Random(42)
    for m in (0.5, 1.0, 2.0):
        p = KernelParams(1, m)
        for _ in range(7):
            f = TestFunction((rng.uniform(-2 * m, 2 * m),),
                             rng.uniform(0.1, m), rng.uniform(0.5, 2.0))
            got = q_kernel_1d(p, f).real
            want = clipped_integral(p, f)
            assert abs(got - want) <= max(1e-8 * abs(want), 1e-10)


def test_q_kernel_matches_oracle_on_bumps_straddling_the_cuts():
    for m in (0.5, 1.0, 2.0):
        p = KernelParams(1, m)
        for edge in (-m, m):
            for shift in (-0.9, -0.3, -0.01, 0.0, 0.01, 0.3, 0.9):
                f = TestFunction((edge + shift * 0.4 * m,), 0.4 * m, 1.3)
                got = q_kernel_1d(p, f).real
                want = clipped_integral(p, f)
                assert abs(got - want) <= max(1e-8 * abs(want), 1e-10)


def test_q_kernel_rules_disagreeing_raise(monkeypatch):
    monkeypatch.setattr(kernels, "Q_KERNEL_1D_NODES", 2)
    with pytest.raises(NumericalError):
        q_kernel_1d(KernelParams(1, 1.0), TestFunction((0.2,), 0.5, 1.0))


def test_theta_convention():
    assert theta(0.0) == 1.0 and theta(-1e-12) == 0.0


def test_bump_smooth_support():
    f = TestFunction((0.0, 0.0), 0.3)
    assert f((0.0, 0.0)) == pytest.approx(np.exp(-1.0))
    assert f((0.3, 0.0)) == 0.0
    assert f((1.0, 1.0)) == 0.0


def test_bump_laplacian_matches_finite_differences():
    f = TestFunction((0.1, -0.2), 0.5, 1.3)
    h = 1e-5
    for pt in [(0.15, -0.1), (0.0, 0.0), (0.3, -0.3)]:
        x, y = pt
        num = (f((x + h, y)) + f((x - h, y)) + f((x, y + h)) + f((x, y - h))
               - 4 * f((x, y))) / h ** 2
        assert abs(num - f.laplacian(pt)) < 1e-4


def test_green_singular_point():
    p = KernelParams(2, 1.0)
    with pytest.raises(SingularPointError):
        green_2d(p, (0.0, 0.0))


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_green_convolution_identity(m):
    p = KernelParams(2, m)
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    x = (0.32, -0.18)
    assert greens_identity_residual(p, f, x) <= 1e-6


# the bump of test_green_convolution_identity has its support edge at x = 0.7
@pytest.mark.parametrize("x", [
    (0.3, -0.2),                # the bump's centre
    (0.45, -0.1),               # off-centre
    (0.69, -0.2),               # 0.01 inside the edge
    (0.7, -0.2),                # on the edge
    (0.75, 0.1),                # outside the support, where f(x) = 0
])
@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.0])
def test_green_identity_polar_rule(m, x):
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    assert greens_identity_residual(KernelParams(2, m), f, x) <= 1e-6


def test_green_identity_rules_disagreeing_raise(monkeypatch):
    monkeypatch.setattr(kernels, "GREEN_2D_NODES", (4, 8))
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    with pytest.raises(NumericalError):
        greens_identity_residual(KernelParams(2, 1.0), f, (0.32, -0.18))


def _probe_samples(evaluator, x0):
    """The probe's own samples: its default scales and |u| at each."""
    lams = np.geomspace(1e-4, 1e-1, 40)
    vals = [float(np.max(np.abs(evaluator(lam * np.asarray(x0)))))
            for lam in lams]
    return np.log(lams), np.log(vals)


@pytest.mark.parametrize("kernel, m", [
    (dirac_kernel_2d, 0.5), (dirac_kernel_2d, 1.0), (dirac_kernel_2d, 2.0),
    (green_2d, 0.0),
])
def test_probe_fit_matches_linregress(kernel, m):
    evaluator = lambda x: kernel(KernelParams(2, m), x)
    from scipy.stats import linregress
    fit = linregress(*_probe_samples(evaluator, (1.0, 0.7)))
    probe = scaling_degree_probe(evaluator, (1.0, 0.7))
    sd = -fit.slope
    want = (sd, sd - 2 * fit.stderr, sd + 2 * fit.stderr, fit.rvalue ** 2)
    got = (probe.sd, probe.ci_low, probe.ci_high, probe.r_squared)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_probe_fit_of_an_exact_power_law():
    # linregress takes the slope's error from 1 - r^2, which cancels to
    # rounding noise (~3e-9 here) on an exact power law; the residuals give
    # an error at the rounding level of the samples themselves
    evaluator = lambda x: dirac_kernel_2d(KernelParams(2, 0.0), x)
    from scipy.stats import linregress
    fit = linregress(*_probe_samples(evaluator, (1.0, 0.7)))
    probe = scaling_degree_probe(evaluator, (1.0, 0.7))
    assert probe.sd == pytest.approx(-fit.slope, rel=1e-12, abs=0)
    assert probe.ci_high - probe.ci_low <= 1e-12
    assert probe.r_squared == pytest.approx(1.0, abs=1e-12)


def test_probe_self_tests():
    inv = scaling_degree_probe(lambda x: 1.0 / np.hypot(x[0], x[1]), (1.0, 0.7))
    assert inv.conclusive and abs(inv.sd - 1.0) < 1e-9
    const = scaling_degree_probe(lambda x: 3.7, (1.0, 0.7))
    assert const.conclusive and abs(const.sd) < 1e-9


def test_probe_massive_dirac_kernel():
    p = KernelParams(2, 1.0)
    probe = scaling_degree_probe(lambda x: dirac_kernel_2d(p, x), (1.0, 0.7))
    assert probe.conclusive
    assert abs(probe.sd - 1.0) <= 0.1  # sd = d - 1


def test_probe_flags_logarithm_inconclusive():
    p = KernelParams(2, 0.0)
    probe = scaling_degree_probe(lambda x: green_2d(p, x), (1.0, 0.7))
    assert not probe.conclusive
    assert probe.sd < 0.5  # weaker than any power law


def test_params_validation():
    with pytest.raises(KernelError):
        KernelParams(3, 1.0)
    with pytest.raises(KernelError):
        KernelParams(1, -1.0)
    with pytest.raises(KernelError):
        TestFunction((0.0,), -0.5)


def test_dirac_kernel_builds_the_gamma_rep_once(monkeypatch):
    from sthirring import clifford
    calls = []
    real = clifford.build_gamma_rep

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(clifford, "build_gamma_rep", counting)
    kernels._gamma_rep_2d.cache_clear()
    p = KernelParams(2, 1.0)
    x = np.array([0.3, -0.4])
    vals = [dirac_kernel_2d(p, lam * x) for lam in (1.0, 0.5, 0.25)]
    assert calls == [2]
    rep = kernels._gamma_rep_2d()
    assert not rep.identity.flags.writeable
    assert not any(g.flags.writeable for g in rep.gammas)
    # later calls on the shared representation match a fresh build
    kernels._gamma_rep_2d.cache_clear()
    assert np.array_equal(dirac_kernel_2d(p, 0.5 * x), vals[1])
    assert calls == [2, 2]
