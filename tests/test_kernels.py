import random

import numpy as np
import pytest

from sthirring import kernels
from sthirring.errors import NumericalError, UsageError
from sthirring.kernels import (
    KernelParams, ProbeResult, TestFunction, bessel_k01, clipped_integral,
    dirac_kernel_2d, greens_identity_residual, polar_mass_limit,
    propagator_1d, q_kernel_1d, scaling_degree_probe, theta,
)

from helpers import (
    bump_laplacian, ref_polar_integral, ref_q_kernel_rules,
    ref_tanh_sinh_rules,
)


def green_2d(p, x):
    """The d=2 Green function at points x != 0 along the last axis."""
    x = np.asarray(x, dtype=float)
    return kernels._radial_green(p.m, np.hypot(x[..., 0], x[..., 1]))


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
    with pytest.raises(UsageError, match="assume m > 0"):
        KernelParams(1, 0.0)


def test_gauss_legendre_rules_are_built_once():
    u, w = kernels._gauss_legendre(16)
    again = kernels._gauss_legendre(16)
    assert again[0] is u and again[1] is w
    assert not u.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        u[0] = 0.0
    assert abs(w.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [*range(1, 81), 128, 256, 512])
def test_gauss_legendre_matches_leggauss(n):
    from numpy.polynomial.legendre import leggauss
    u, w = kernels._gauss_legendre(n)
    t, wt = leggauss(n)
    assert u.shape == w.shape == (n,)
    assert np.max(np.abs(u - (t + 1.0) / 2.0)) <= 2e-16
    # leggauss's own weights are off by up to 3e-15 here, see below
    assert np.max(np.abs(w - wt / 2.0)) <= 5e-15
    assert np.all(np.diff(u) > 0) and np.all(w > 0)
    assert np.max(np.abs(u + u[::-1] - 1.0)) <= 2.3e-16
    assert np.array_equal(w, w[::-1])
    if n % 2:
        assert u[n // 2] == 0.5


def _mp_gauss_legendre(n, start):
    """The n-point rule on [0, 1] to 40 digits: two Newton steps in
    mpmath from the double-precision nodes `start` on [-1, 1], each root's
    weight 1/((1 - x^2) P_n'(x)^2) taken at the second step's start, and
    the negative roots from the positive ones."""
    import mpmath
    with mpmath.workdps(40):
        roots, weights = [], []
        for x in map(mpmath.mpf, start[n // 2:]):
            for _ in range(2):
                p0, p1 = mpmath.mpf(1), x
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            roots.append(x)
            weights.append(1 / ((1 - x * x) * dp * dp))
        u = ([(1 - x) / 2 for x in roots[::-1][:n // 2]]
             + [(1 + x) / 2 for x in roots])
        w = weights[::-1][:n // 2] + weights
    return u, w


@pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
def test_gauss_legendre_is_no_less_accurate_than_leggauss(n):
    """Against a 40-digit rule, the worst node and the worst weight of
    the Newton rule are off by no more than those of leggauss (mapped to
    [0, 1]).  The extended-precision polish rounds them from well below
    double's resolution, where leggauss's weights are off by up to 2.8e-15."""
    import mpmath
    from numpy.polynomial.legendre import leggauss
    t, wt = leggauss(n)
    u_ref, w_ref = _mp_gauss_legendre(n, t)

    def worst(got, want):
        return float(max(abs(mpmath.mpf(float(g)) - v)
                         for g, v in zip(got, want)))

    u, w = kernels._gauss_legendre(n)
    ours = worst(u, u_ref), worst(w, w_ref)
    theirs = worst((t + 1.0) / 2.0, u_ref), worst(wt / 2.0, w_ref)
    assert ours[0] <= theirs[0] and ours[1] <= theirs[1]
    # half a unit in the last place of a node in [0.5, 1) is 5.55e-17
    assert ours[0] <= 5.6e-17 and ours[1] <= 2e-17


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


def test_bessel_k01_on_arrays_equals_one_at_a_time_bit_for_bit():
    """An array in one branch runs that branch on the whole array, an
    array across x = 2 runs each branch on its part; neither moves a bit."""
    above_2 = np.nextafter(2.0, 3.0)
    for x in (np.geomspace(1e-10, 2.0, 257),     # the series alone
              np.geomspace(above_2, 700.0, 257),  # the trapezoid rule alone
              np.geomspace(1e-3, 50.0, 513)):    # both
        k0, k1 = bessel_k01(x)
        one = np.array([bessel_k01(float(v)) for v in x])
        assert np.array_equal(k0, one[:, 0]) and np.array_equal(k1, one[:, 1])
        grid = x[:256].reshape(16, 16)
        assert np.array_equal(bessel_k01(grid)[0], k0[:256].reshape(16, 16))


@pytest.mark.parametrize("m", [0.5, 1.0, 30.0])
def test_green_function_takes_k0_of_bessel_k01_bit_for_bit(m):
    """The Green function computes K_0 alone, by the same steps."""
    r = np.geomspace(1e-6, 60.0, 241) / m  # m r from 1e-6 to 60
    r = np.append(r, [2.0 / m, np.nextafter(2.0, 3.0) / m])  # x near 2
    assert np.any(m * r <= 2.0) and np.any(m * r > 2.0)
    want = bessel_k01(m * r)[0] / (2.0 * np.pi)
    assert np.array_equal(kernels._radial_green(m, r), want)
    grid = r[:240].reshape(12, 20)
    assert np.array_equal(kernels._radial_green(m, grid),
                          want[:240].reshape(12, 20))
    for v in r[::20]:
        got = kernels._radial_green(m, float(v))
        assert np.ndim(got) == 0
        assert got == bessel_k01(m * float(v))[0] / (2.0 * np.pi)


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
    # the Green identity's source at m = 0 is minus the bump's Laplacian
    f = TestFunction((0.1, -0.2), 0.5, 1.3)
    h = 1e-5
    for pt in [(0.15, -0.1), (0.0, 0.0), (0.3, -0.3)]:
        x, y = pt
        num = (f((x + h, y)) + f((x - h, y)) + f((x, y + h)) + f((x, y - h))
               - 4 * f((x, y))) / h ** 2
        v = 1.0 / (1.0 - f._t2(np.array(pt)))  # each pt is inside f's support
        assert abs(num + kernels._bump_source(f, v, 0.0)) < 1e-4


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("f", [TestFunction((0.1, -0.2), 0.5, 1.3),
                               TestFunction((0.4,), 0.3, 0.7)],
                         ids=["2d", "1d"])
def test_bump_source_matches_the_analytic_laplacian(f, m):
    rng = np.random.default_rng(5)
    lo, hi = (np.asarray(b) - 0.1 for b in f.support())  # some points outside
    y = rng.uniform(lo, hi + 0.2, size=(50, 40, f.dim))
    y[0, 0] = f.center
    y[0, 1] = np.add(f.center, np.eye(f.dim)[0] * f.radius)  # on the edge
    if f.dim == 1:
        y = y[..., 0]  # a 1d bump takes bare coordinates
    want = -bump_laplacian(f, y) + m * m * f(y)
    s = f._t2(y)
    inside = s < 1.0  # the source takes v = 1/(1 - t^2) inside the support
    got = kernels._bump_source(f, 1.0 / (1.0 - s[inside]), m)
    assert want.shape == (50, 40) and got.shape == (np.sum(inside),)
    assert np.all(want[~inside] == 0.0)
    assert np.all(got[f(y)[inside] == 0.0] == 0.0)
    assert np.max(np.abs(got - want[inside])) <= 1e-13 * np.max(np.abs(want))


# The reference polar rule runs on the radial rule's node count and
# REF_ANGLES angles, and on twice both.  Off the bump's centre it alone
# checks the identity, with kernel-check's tolerance on the two's agreement.
REF_ANGLES = 256


def ref_green_identity_residual(p, f, x):
    """| int G(x-y) (-Lap + m^2) f(y) dy  -  f(x) | at any point x, by
    `ref_polar_integral` at two resolutions that must agree."""
    n_r = kernels.GREEN_2D_NODES
    coarse = ref_polar_integral(p, f, x, n_r, REF_ANGLES)
    val = ref_polar_integral(p, f, x, 2 * n_r, 2 * REF_ANGLES)
    assert abs(val - coarse) <= kernels.QUAD_TOL_2D
    return abs(val - f(x))


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_green_convolution_identity(m):
    p = KernelParams(2, m)
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    x = (0.32, -0.18)
    assert ref_green_identity_residual(p, f, x) <= 1e-6


# the bump of test_green_convolution_identity has its support edge at x = 0.7
@pytest.mark.parametrize("x", [
    (0.3, -0.2),                # the bump's centre, by the radial rule
    (0.45, -0.1),               # off-centre
    (0.69, -0.2),               # 0.01 inside the edge
    (0.7, -0.2),                # on the edge
    (0.75, 0.1),                # outside the support, where f(x) = 0
])
@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.0])
def test_green_identity_polar_rule(m, x):
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    p = KernelParams(2, m)
    if x == f.center:
        assert greens_identity_residual(p, f) <= 1e-6
    else:
        assert ref_green_identity_residual(p, f, x) <= 1e-6


def test_polar_rule_resolves_masses_up_to_its_limit():
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    m = polar_mass_limit(f)
    assert greens_identity_residual(KernelParams(2, m), f) <= 1e-6


def test_polar_mass_limit_is_near_where_the_rules_part():
    """The bound is within a factor 4 of the mass where the two rules stop
    agreeing; it halves with twice the radius."""
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    m = polar_mass_limit(f)
    with pytest.raises(NumericalError):
        greens_identity_residual(KernelParams(2, 4 * m), f)
    wide = TestFunction((0.3, -0.2), 0.8, 1.0)
    assert polar_mass_limit(wide) == pytest.approx(m / 2)


# The integral gives f(c) = A/e from parts about as large as that peak, so
# the rules are compared on its scale.  The reference runs on all its
# angles, so that it does not lean on the integrand being radial.
@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.0, "limit"])
def test_polar_integral_matches_the_per_point_reference(m):
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    p = KernelParams(2, polar_mass_limit(f) if m == "limit" else m)
    n = kernels.GREEN_2D_NODES
    for k in (1, 2):  # both resolutions of greens_identity_residual
        got = kernels._radial_integral(p, f, k * n)
        want = ref_polar_integral(p, f, f.center, k * n, k * REF_ANGLES)
        assert abs(got - want) <= 1e-13 * f(f.center)


def test_a_zero_bump_is_resolved_at_every_mass():
    f = TestFunction((0.0, 0.0), 0.4, 0.0)
    assert polar_mass_limit(f) == np.inf
    assert greens_identity_residual(KernelParams(2, 1e9), f) == 0


def test_d2_kernel_check_peak_memory_is_bounded():
    """The d = 2 check runs one row of radial nodes per resolution, and its
    traced peak stays within 0.25 MB (about 0.04 MB)."""
    import tracemalloc
    tracemalloc.start()
    try:
        kernels.kernel_check(2, 1.0, 20, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25e6


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_polar_rule_evaluates_one_angle_row_at_the_centre(monkeypatch, m):
    """At the bump's centre nothing depends on the angle, so the rule is
    one row of radial nodes: the Green identity evaluates the Green
    function on n_r nodes, then on 2 n_r."""
    sizes = []
    real = kernels._radial_green

    def counting(mass, r):
        sizes.append(np.size(r))
        return real(mass, r)

    monkeypatch.setattr(kernels, "_radial_green", counting)
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    greens_identity_residual(KernelParams(2, m), f)
    n_r = kernels.GREEN_2D_NODES
    assert sizes == [n_r, 2 * n_r]


def test_green_identity_rules_disagreeing_raise(monkeypatch):
    monkeypatch.setattr(kernels, "GREEN_2D_NODES", 4)
    f = TestFunction((0.3, -0.2), 0.4, 1.0)
    with pytest.raises(NumericalError, match="2d radial rules disagree"):
        greens_identity_residual(KernelParams(2, 1.0), f)


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
    inv = scaling_degree_probe(lambda x: 1.0 / np.hypot(x[..., 0], x[..., 1]),
                               (1.0, 0.7))
    assert inv.conclusive and abs(inv.sd - 1.0) < 1e-9
    const = scaling_degree_probe(lambda x: np.full(x.shape[:-1], 3.7),
                                 (1.0, 0.7))
    assert const.conclusive and abs(const.sd) < 1e-9


def test_probe_evaluates_every_dilation_in_one_call():
    """The evaluator sees the (PROBE_SAMPLES, 2) dilated points once; a
    scalar result is every sample's |u|."""
    seen = []

    def evaluator(x):
        seen.append(x.copy())
        return -2.5

    probe = scaling_degree_probe(evaluator, (1.0, 0.7))
    assert len(seen) == 1
    lams = np.geomspace(*kernels.PROBE_LAMBDAS, kernels.PROBE_SAMPLES)
    assert np.array_equal(seen[0], [lam * np.array([1.0, 0.7]) for lam in lams])
    assert probe == ProbeResult(0.0, 0.0, 0.0, True, 1.0)


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
    # the tanh-sinh oracle integrates d = 1 data only, as q_kernel_1d does
    for params, f in ((KernelParams(1, 1.0), TestFunction((0.0, 0.0), 0.5)),
                      (KernelParams(2, 1.0), TestFunction((0.0,), 0.5))):
        with pytest.raises(UsageError, match="clipped_integral needs d = 1 data"):
            clipped_integral(params, f)


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.0, 3e4])
def test_dirac_kernel_on_a_batch_equals_the_per_point_calls_bit_for_bit(m):
    """The probe's dilations at this mass and points past r = 2/m, where
    bessel_k01 takes its other branch, in one (3, 20, 2) batch."""
    p = KernelParams(2, m)
    lams = np.geomspace(*kernels.PROBE_LAMBDAS, 40)[:, None]
    x0 = np.array([1.0, 0.7]) / max(1.0, m)
    rng = np.random.default_rng(5)
    far = rng.uniform(-3.0, 3.0, (20, 2)) * 4.0 / max(1.0, m)
    pts = np.concatenate((lams * x0, far)).reshape(3, 20, 2)
    got = dirac_kernel_2d(p, pts)
    assert got.shape == (3, 20, 2, 2)
    for idx in np.ndindex(3, 20):
        assert got[idx].tobytes() == dirac_kernel_2d(p, pts[idx]).tobytes()


def test_dirac_kernel_refuses_a_batch_with_a_point_on_the_diagonal():
    pts = np.array([[0.3, -0.4], [0.0, 0.0], [1.0, 0.7]])
    with pytest.raises(UsageError, match="evaluated on the diagonal"):
        dirac_kernel_2d(KernelParams(2, 1.0), pts)


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



def _bench_bumps_1d():
    """The bumps of the benchmark's job kernel-check --dim 1 --mass 1.0
    --trials 20 --seed 3, drawn as `kernels.kernel_check` draws them."""
    rng = random.Random(3)
    for _ in range(20):
        center = rng.uniform(-2.0, 2.0)
        radius, amp = rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0)
        yield TestFunction((center,), radius, amp)


def _pins_the_rule_gap(monkeypatch, check, params, f, gap):
    """check passes with its tolerance at `gap` and raises one ulp below,
    so its two rules differ by exactly `gap`."""
    monkeypatch.setattr(kernels, "_tol_1d", lambda v: gap)
    check(params, f)
    monkeypatch.setattr(kernels, "_tol_1d",
                        lambda v: np.nextafter(gap, -np.inf))
    with pytest.raises(NumericalError):
        check(params, f)
    monkeypatch.undo()


@pytest.mark.parametrize("check, reference", [
    (q_kernel_1d, ref_q_kernel_rules),
    (clipped_integral, ref_tanh_sinh_rules),
], ids=["q_kernel_1d", "clipped_integral"])
def test_shared_rule_evaluation_matches_the_separate_rules_bit_for_bit(
        monkeypatch, check, reference):
    """Each 1-D pair evaluates its integrand once, for both rules; its
    value is the separate fine rule's, bit for bit, and its two rules are
    as far apart as the separate ones."""
    params = KernelParams(1, 1.0)
    seen = 0
    for f in _bench_bumps_1d():
        rules = reference(params, f)
        if rules is None:  # supp f misses [-m, m]: no rule runs
            assert check(params, f) == 0.0
            continue
        coarse, val = rules
        assert check(params, f) == val
        _pins_the_rule_gap(monkeypatch, check, params, f, abs(val - coarse))
        seen += 1
    assert seen >= 10


@pytest.mark.parametrize("check, center", [
    (q_kernel_1d, (0.2,)),
    (clipped_integral, (0.2,)),
    (greens_identity_residual, (0.3, -0.2)),
], ids=["q_kernel_1d", "clipped_integral", "greens_identity_residual"])
def test_two_resolution_checks_fail_closed_on_nan(check, center):
    """A NaN bump gives NaN at both resolutions; NaN is no agreement."""
    f = TestFunction(center, 0.4, float("nan"))
    with pytest.raises(NumericalError):
        check(KernelParams(len(center), 1.0), f)
