import random

import numpy as np
import pytest

from sthirring import kernels
from sthirring.errors import NumericalError, UsageError
from sthirring.kernels import (
    KernelParams, ProbeResult, TestFunction, bessel_k01, clipped_integral,
    dirac_kernel_2d, green_2d, greens_identity_residual, propagator_1d,
    q_kernel_1d, scaling_degree_probe, theta,
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
    with pytest.raises(UsageError):
        propagator_1d(p, 0.1)


def test_gauss_legendre_rules_are_built_once():
    u, w = kernels._gauss_legendre(16)
    again = kernels._gauss_legendre(16)
    assert again[0] is u and again[1] is w
    assert not u.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        u[0] = 0.0
    assert abs(w.sum() - 1.0) <= 1e-14


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


def _cli_bumps(m, n, seed):
    """n bumps drawn as `kernel-check --dim 1 --mass m --seed seed` draws
    them."""
    rng = random.Random(seed)
    for _ in range(n):
        center = rng.uniform(-2 * m, 2 * m)
        radius = rng.uniform(0.1, m)
        yield TestFunction((center,), radius, rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
def test_clipped_integral_sweep_matches_tight_quad(m):
    # at m = 2 and 3 about 0.7% of these bumps made the adaptive oracle
    # report an error estimate above its own 1e-8 relative acceptance
    from scipy.integrate import quad
    p = KernelParams(1, m)
    for f in _cli_bumps(m, 500, seed=int(10 * m)):
        got = clipped_integral(p, f)
        (lo,), (hi,) = f.support()
        a, b = max(lo, -m), min(hi, m)
        want = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0] \
            if a < b else 0.0
        assert abs(got - want) <= 1e-13


def test_clipped_integral_rules_disagreeing_raise(monkeypatch):
    monkeypatch.setattr(kernels, "TANH_SINH_STEP", 1.0)
    with pytest.raises(NumericalError):
        clipped_integral(KernelParams(1, 1.0), TestFunction((0.2,), 0.5, 1.0))


def test_bessel_k01_matches_scipy():
    from scipy import special
    x = np.geomspace(1e-10, 700, 2001)
    k0, k1 = bessel_k01(x)
    assert k0.shape == k1.shape == x.shape
    assert np.max(np.abs(k0 / special.k0(x) - 1)) <= 1e-13
    assert np.max(np.abs(k1 / special.k1(x) - 1)) <= 1e-13
    for v in x[::50]:
        s0, s1 = bessel_k01(float(v))
        assert np.ndim(s0) == np.ndim(s1) == 0
        assert abs(s0 / special.k0(v) - 1) <= 1e-13
        assert abs(s1 / special.k1(v) - 1) <= 1e-13
    grid = x[:12].reshape(3, 4)  # array shape is kept
    assert np.array_equal(bessel_k01(grid)[1], k1[:12].reshape(3, 4))


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_d2_kernels_match_scipy_built_references(m):
    from scipy import special
    p = KernelParams(2, m)
    rep = kernels._gamma_rep_2d()
    for x in [(1e-3, 0.0), (0.3, -0.4), (1.2, 0.5), (3.0, 4.0)]:
        r = np.hypot(*x)
        g = special.k0(m * r) / (2 * np.pi)
        assert green_2d(p, x) == pytest.approx(g, rel=1e-13, abs=0)
        grad = -m * special.k1(m * r) / (2 * np.pi) * np.asarray(x) / r
        want = m * g * rep.identity + 1j * (rep.gammas[0] * grad[0]
                                            + rep.gammas[1] * grad[1])
        got = dirac_kernel_2d(p, x)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    with pytest.raises(UsageError):
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
    with pytest.raises(UsageError):
        KernelParams(3, 1.0)
    with pytest.raises(UsageError):
        KernelParams(1, -1.0)
    with pytest.raises(UsageError):
        TestFunction((0.0,), -0.5)
    with pytest.raises(UsageError):
        TestFunction((0.0,), float("nan"))


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



@pytest.mark.parametrize("check, center", [
    (q_kernel_1d, (0.2,)),
    (clipped_integral, (0.2,)),
    (lambda p, f: greens_identity_residual(p, f, (0.32, -0.18)), (0.3, -0.2)),
], ids=["q_kernel_1d", "clipped_integral", "greens_identity_residual"])
def test_two_resolution_checks_fail_closed_on_nan(check, center):
    """A NaN bump gives NaN at both resolutions; NaN is no agreement."""
    f = TestFunction(center, 0.4, float("nan"))
    with pytest.raises(NumericalError):
        check(KernelParams(len(center), 1.0), f)
