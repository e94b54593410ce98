"""Closed-form kernels in one dimension and the massive d=2 reference.

For d = 1 and m > 0 the fundamental solutions are taken literally as

    G_psi(x)    = -i exp(-i m x) Theta(-x + m)
    G_psibar(x) =  i exp( i m x) Theta( x + m)

so their pointwise product is the indicator of [-m, m] and the coincident
covariance acts on a test function as the clipped integral over [-m, m];
both facts are exercised numerically here.  The step arguments mix x and m
dimensionally but are internally consistent with the clipped-integral
identity.  `q_kernel_1d` integrates the literal kernels by Gauss-Legendre
on the bump's support split at +-m; `clipped_integral`, its independent
oracle, integrates f directly over [-m, m] by the tanh-sinh rule
(Takahasi & Mori 1974), whose half step reuses every node of the step.

For d = 2 the scalar Green function of (-Laplace + m^2) is the modified
Bessel kernel K_0(m r)/(2 pi), logarithmic at m = 0; it is validated
against a convolution identity rather than asserted, with the source
(-Laplace + m^2) f of the bump taken from its closed form in 1/(1 - t^2).
The convolution is taken at the bump's centre, where both the bump and
the kernel are radial: 2 pi int_0^rho G(r) (-Laplace + m^2) f(r) r dr, a
radial rule in u with r = rho u^2, which absorbs the r log r singularity,
and 1 - t^2 = (1 - u^2)(1 + u^2) with no cancellation near the edge.
All three fixed rules run at two resolutions and raise NumericalError
unless the two agree (a NaN never agrees); each 1-D pair evaluates its
integrand once, for both rules.  The first-order Dirac kernel built from
the Green function scales like 1/r, matching the d-1 scaling degree that
drives the power counting; the probe evaluates it at every dilation at
once.  K_0 and K_1 come from `bessel_k01`: the power series for x <= 2
and the trapezoid rule on the integral representation above it
(Abramowitz & Stegun 9.6.13 and 9.6.24).  The Gauss-Legendre rules are
built by Newton's method on the Legendre recurrence (`_gauss_legendre`),
in O(n^2) operations where an eigenvalue solver takes O(n^3).
`kernel_check` runs kernel-check: trials, report, verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

from . import clifford
from .errors import NumericalError, UsageError

QUAD_TOL_1D = 1e-10
QUAD_TOL_2D = 1e-8
# Gauss-Legendre nodes per subinterval in q_kernel_1d, and of the radial
# rule in greens_identity_residual.  Each rule also runs at twice these
# counts; the two results must agree within the tolerance.
Q_KERNEL_1D_NODES = 64
GREEN_2D_NODES = 128
# Step of the tanh-sinh rule in clipped_integral (also run at half the
# step), and the half-width of its node range in the rule's variable.
TANH_SINH_STEP = 1.0 / 16
_TANH_SINH_T = 3.5
# scaling_degree_probe fits PROBE_SAMPLES dilations, log-spaced over the
# range PROBE_LAMBDAS.
PROBE_LAMBDAS = (1e-4, 1e-1)
PROBE_SAMPLES = 40


@dataclass(frozen=True)
class KernelParams:
    d: int
    m: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise UsageError("kernel backend covers d = 1 and d = 2")
        if not 0 <= self.m < np.inf:
            raise UsageError("mass must be finite and nonnegative")
        if self.d == 1 and self.m == 0:
            raise UsageError("the one-dimensional closed forms assume m > 0")


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported radial bump A*exp(-1/(1-t^2)), t = |x-c|/r."""

    __test__ = False  # despite the name, nothing for pytest to collect

    center: tuple
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise UsageError("bump radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    def _t2(self, x):
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            s = (x - self.center[0]) / self.radius
            return s * s
        d2 = sum((x[..., i] - self.center[i]) ** 2 for i in range(self.dim))
        return d2 / self.radius ** 2

    def __call__(self, x):
        t2 = self._t2(x)
        out = np.zeros_like(t2)
        inside = t2 < 1.0
        out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - t2[inside]))
        return out if out.ndim else float(out)

    def support(self) -> tuple:
        lo = tuple(c - self.radius for c in self.center)
        hi = tuple(c + self.radius for c in self.center)
        return lo, hi


def theta(x) -> float:
    """Heaviside step with theta(0) = 1; boundary values are measure zero
    for every identity checked here."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0)


def propagator_1d(params: KernelParams, x):
    """(G_psi(x), G_psibar(x)) for the massive one-dimensional operator."""
    if params.d != 1:
        raise UsageError("propagator_1d needs d = 1")
    x = np.asarray(x, dtype=float)
    m = params.m
    g = -1j * np.exp(-1j * m * x) * theta(-x + m)
    gbar = 1j * np.exp(1j * m * x) * theta(x + m)
    return g, gbar


def _tol_1d(v: float) -> float:
    """The 1-D rules' tolerance on v: relative 1e-8, floored at QUAD_TOL_1D."""
    return max(QUAD_TOL_1D, 1e-8 * abs(v))


def q_kernel_1d(params: KernelParams, f: TestFunction) -> float:
    """Coincident covariance applied to f: integral of G_psi G_psibar f.

    Equals the clipped integral of f over [-m, m] for the literal kernels.
    """
    if params.d != 1 or f.dim != 1:
        raise UsageError("q_kernel_1d needs d = 1 data")
    (lo,), (hi,) = f.support()
    m = params.m
    cuts = np.array([lo, *sorted(p for p in (-m, m) if lo < p < hi), hi])
    starts, widths = cuts[:-1, None], np.diff(cuts)[:, None]
    n = Q_KERNEL_1D_NODES
    (u1, w1), (u2, w2) = _gauss_legendre(n), _gauss_legendre(2 * n)
    # one row per subinterval: the coarse rule's nodes, then the fine one's
    x = starts + widths * np.concatenate((u1, u2))
    g, gbar = propagator_1d(params, x)
    gf = (g * gbar).real * f(x)
    coarse, val = (float(np.sum(gf[:, cols] * widths * w))
                   for cols, w in ((slice(n), w1), (slice(n, None), w2)))
    if not abs(val - coarse) <= _tol_1d(val):
        raise NumericalError(f"1d Gauss-Legendre rules disagree by "
                             f"{abs(val - coarse):g} on value {val:g}")
    return val


def clipped_integral(params: KernelParams, f: TestFunction) -> float:
    """Oracle for q_kernel_1d: integral of f over [-m, m] by quadrature.

    Uses the tanh-sinh rule on [a, b] = supp f intersected with [-m, m],
    x = (a+b)/2 + (b-a)/2 tanh(pi/2 sinh t), with the trapezoid rule in t
    at TANH_SINH_STEP and at half of it.  Raises NumericalError when the
    two differ by more than `_tol_1d` of the value.
    """
    (lo,), (hi,) = f.support()
    a, b = max(lo, -params.m), min(hi, params.m)
    if a >= b:
        return 0.0
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    # the rule at half the step, whose even nodes h k = (h/2)(2k) are exact
    h = TANH_SINH_STEP / 2.0
    n = 2 * np.ceil(_TANH_SINH_T / TANH_SINH_STEP)
    t = h * np.arange(-n, n + 1)
    s = 0.5 * np.pi * np.sinh(t)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(s) ** 2
    wf = w * f(mid + half * np.tanh(s))
    coarse = float(half * TANH_SINH_STEP * np.sum(wf[::2]))
    val = float(half * h * np.sum(wf))
    if not abs(val - coarse) <= _tol_1d(val):
        raise NumericalError(f"1d tanh-sinh rules disagree by "
                             f"{abs(val - coarse):g} on value {val:g}")
    return val


def _radial_green(m: float, r):
    """The d=2 Green function, the fundamental solution of
    (-Laplace + m^2) on the plane, at distance r > 0, elementwise on
    arrays."""
    if m > 0:
        return bessel_k01(m * r)[0] / (2.0 * np.pi)
    return -np.log(r) / (2.0 * np.pi)


_EULER_GAMMA = 0.57721566490153286061
_K_SERIES_TERMS = 14     # terms of the x <= 2 series; 12 reach rounding
_K_TRAPEZOID_NODES = 32  # trapezoid panels above x = 2; 16 reach rounding


def _k_series_coefficients(n: int) -> np.ndarray:
    """Entry [k, :, 0]: the q^k coefficients, q = x^2/4, of I_0(x), of
    sum H_k q^k/k!^2, of (2/x) I_1(x) and of
    sum (H_k + H_{k+1}) q^k/(k! (k+1)!), where H_k is the harmonic number."""
    rows, h = [], Fraction(0)
    for k in range(n):
        c0 = Fraction(1, factorial(k) ** 2)
        c1 = Fraction(1, factorial(k) * factorial(k + 1))
        h_next = h + Fraction(1, k + 1)
        rows.append([float(c0), float(h * c0), float(c1),
                     float((h + h_next) * c1)])
        h = h_next
    return np.array(rows)[:, :, None]


_K_SERIES = _k_series_coefficients(_K_SERIES_TERMS)


def bessel_k01(x):
    """(K_0(x), K_1(x)), the modified Bessel functions of the second kind,
    for x > 0; scalar in, numpy scalars out, array in, arrays out.

    For x <= 2 the power series (A&S 9.6.13), with L = log(x/2) + gamma:
        K_0 = sum H_k q^k/k!^2 - L I_0,
        K_1 = 1/x + (x/2) (L (2/x) I_1 - sum (H_k + H_{k+1}) q^k/(2 k! (k+1)!)).
    Above it K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt (A&S 9.6.24)
    by the trapezoid rule on [0, t_max], t_max = arccosh(1 + 45/x), where the
    integrand has fallen by e^-45 against its value at t = 0.  Each branch
    is within about 1e-14 relative of the Cephes library's k0/k1 on
    [1e-10, 700].
    """
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x).ravel()
    out = np.empty((2, flat.size))
    small = flat <= 2.0
    # a branch that takes every x runs on flat itself: no gather, no scatter
    lo, hi = ((slice(None), None) if small.all() else
              (None, slice(None)) if not small.any() else (small, ~small))
    if lo is not None:
        s = flat[lo]
        q = s * s / 4.0
        acc = np.empty((4, s.size))
        acc[:] = _K_SERIES[-1]
        for row in _K_SERIES[-2::-1]:  # Horner in q, all the series at once
            acc *= q
            acc += row
        log_term = np.log(s / 2.0) + _EULER_GAMMA
        out[0, lo] = acc[1] - log_term * acc[0]
        out[1, lo] = 1.0 / s + (s / 2.0) * (log_term * acc[2] - acc[3] / 2.0)
    if hi is not None:
        b = flat[hi][:, None]
        t_max = np.arccosh(1.0 + 45.0 / b)
        t = t_max * (np.arange(_K_TRAPEZOID_NODES + 1) / _K_TRAPEZOID_NODES)
        # exp(-x cosh t) = exp(-x) exp(-2x sinh^2(t/2)), cancellation-free
        e = np.exp(-2.0 * b * np.sinh(t / 2.0) ** 2)
        e[:, [0, -1]] *= 0.5
        scale = np.exp(-b[:, 0]) * t_max[:, 0] / _K_TRAPEZOID_NODES
        out[0, hi] = scale * e.sum(axis=1)
        out[1, hi] = scale * (e * np.cosh(t)).sum(axis=1)
    return tuple(k.reshape(x.shape)[()] for k in out)


@cache
def _gauss_legendre(n: int):
    """Nodes and weights (read-only arrays) of the n-point Gauss-Legendre
    rule on [0, 1], built once per n and shared.

    The nodes are the roots of P_n on [-1, 1], mapped to u = (1 + x)/2.
    Newton's method on the three-term recurrence finds the ceil(n/2)
    nonnegative roots at once, from Tricomi's estimate
    x_k = (1 - (n-1)/(8 n^3)) cos(pi (4k-1)/(4n+2)), in O(n^2) operations
    (Hale & Townsend 2013); the negative roots follow by symmetry, and an
    odd rule's middle node is 0 exactly.  Steps run in double precision
    until the largest one is below 1e-6/n, which leaves each root within
    about 1e-13; a last step in extended precision (np.longdouble) then
    polishes the roots, and the nodes and the weights
    w = 1/((1 - x^2) P_n'(x)^2) are rounded to double from there.  Where
    np.longdouble is double, the last step is one more ordinary step.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(
        np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if n * np.max(np.abs(step)) <= 1e-6:
            break
    x = x.astype(np.longdouble)
    p, dp = _legendre(n, x)
    step = p / dp
    # P_n' at the polished root, to first order: P_n'' from Legendre's
    # equation (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n
    dp -= step * (2 * x * dp - n * (n + 1) * p) / ((1 - x) * (1 + x))
    x -= step
    w = 1 / ((1 - x) * (1 + x) * dp * dp)
    h = n // 2  # the nonnegative roots descend; the first h have mirrors
    u = np.concatenate(((1 - x[:h]) / 2, ((1 + x) / 2)[::-1])).astype(float)
    w = np.concatenate((w[:h], w[::-1])).astype(float)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _legendre(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) for x in (-1, 1) by the recurrence
    P_{j+1} = ((2j+1) x P_j - j P_{j-1})/(j+1), in the precision of x."""
    j = np.arange(1, n, dtype=x.dtype)
    p0, p1 = np.ones_like(x), x
    for a, b in zip((2 * j + 1) / (j + 1), j / (j + 1)):
        p0, p1 = p1, a * x * p1 - b * p0
    return p1, n * (x * p1 - p0) / ((x - 1) * (x + 1))


def polar_mass_limit(f: TestFunction) -> float:
    """The largest mass m whose Green identity the radial rule of
    `greens_identity_residual` can resolve within QUAD_TOL_2D.

    The coarse rule's first node is r_1 = rho u_1^2, with rho the bump's
    radius and u_1 the first of GREEN_2D_NODES Gauss-Legendre nodes.  Below
    r_1 the rule does not see the kernel K_0(m r), and the two rules'
    disagreement grows like A (m r_1)^2, A the bump's amplitude (as m^2, as
    rho^2 and as n^-8).  So the rules can agree only while
    A (m r_1)^2 <= QUAD_TOL_2D.  For the bump of radius 0.4, with A = 1,
    that is m <= 3.3e4; the two rules begin to disagree past m = 5.9e4.
    A = 0 resolves every mass.
    """
    if f.amplitude == 0.0:
        return np.inf
    u1 = _gauss_legendre(GREEN_2D_NODES)[0][0]
    return float(np.sqrt(QUAD_TOL_2D / abs(f.amplitude))
                 / (f.radius * u1 * u1))


def _bump_source(f: TestFunction, v, m: float):
    """(-Laplace + m^2) f inside f's support, given v = 1/(1 - t^2).

    With s = t^2 and g(s) = exp(-v), f = A g, and the Laplacian in dim
    dimensions is A (4 s g'' + 2 dim g') / rho^2, rho the bump's radius,
    where g' = -v^2 g and g'' = v^3 (v - 2) g; as s v = v - 1,
    (-Laplace + m^2) f = A g (m^2 + 2 v^2 (dim - 2 (v - 1)(v - 2)) / rho^2).
    """
    return f.amplitude * np.exp(-v) * (m * m + 2.0 * v * v * (
        f.dim - 2.0 * (v - 1.0) * (v - 2.0)) / f.radius ** 2)


def _radial_integral(params: KernelParams, f: TestFunction, n: int):
    """int G(c - y) (-Lap + m^2) f(y) dy at the bump's centre c by the
    radial rule of `greens_identity_residual` on n nodes.

    With r = rho u^2, t = u^2 and r dr = 2 rho^2 u^3 du, the integral is
    2 pi rho^2 int_0^1 G(rho u^2) (-Lap + m^2) f 2 u^3 du, and
    1 - t^2 = (1 - u^2)(1 + u^2) is positive with no cancellation up to
    the edge.
    """
    u, w = _gauss_legendre(n)
    u2 = u * u
    v = 1.0 / ((1.0 - u2) * (1.0 + u2))
    g = _radial_green(params.m, f.radius * u2) * _bump_source(f, v, params.m)
    return (g @ (2.0 * u2 * u * w)) * f.radius ** 2 * (2.0 * np.pi)


def greens_identity_residual(params: KernelParams, f: TestFunction) -> float:
    """| int G(c-y) (-Lap + m^2) f(y) dy  -  f(c) | for a 2d bump at its
    centre c.

    Both the bump and the kernel are radial about c, so the integral is
    2 pi times a radial one over [0, rho].  The substitution r = rho u^2
    turns the r log r behaviour of r G(r) at r = 0 into u^3 log u, which
    Gauss-Legendre in u integrates to high order.  Raises NumericalError
    when the rule at GREEN_2D_NODES and at twice as many nodes disagree by
    more than QUAD_TOL_2D.
    """
    if params.d != 2 or f.dim != 2:
        raise UsageError("needs d = 2 data")
    coarse = _radial_integral(params, f, GREEN_2D_NODES)
    val = _radial_integral(params, f, 2 * GREEN_2D_NODES)
    if not abs(val - coarse) <= QUAD_TOL_2D:
        raise NumericalError(
            f"2d polar rules disagree by {abs(val - coarse):g}")
    return abs(val - float(f(f.center)))


@cache
def _gamma_rep_2d():
    """The Cl(2) representation (read-only arrays), built once per process
    and shared."""
    return clifford.build_gamma_rep(2)


def dirac_kernel_2d(params: KernelParams, x) -> np.ndarray:
    """First-order massive kernel (i gamma^mu d_mu + m) G applied to the
    scalar Green function; the matrix whose entries scale like 1/r.  The
    points lie along the last axis: shape (..., 2) in, (..., 2, 2) out."""
    if params.d != 2:
        raise UsageError("dirac_kernel_2d needs d = 2")
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    if np.any(r == 0.0):
        raise UsageError("Dirac kernel evaluated on the diagonal")
    rep = _gamma_rep_2d()
    m = params.m
    if m > 0:
        k0, k1 = bessel_k01(m * r)
        g0, dg = k0 / (2.0 * np.pi), -m * k1 / (2.0 * np.pi)
    else:
        g0, dg = _radial_green(m, r), -1.0 / (2.0 * np.pi * r)
    grad = dg[..., None] * x / r[..., None]
    out = (m * g0)[..., None, None] * rep.identity.astype(complex)
    for mu in range(2):
        out = out + 1j * rep.gammas[mu] * grad[..., mu, None, None]
    return out


@dataclass(frozen=True)
class ProbeResult:
    sd: float
    ci_low: float
    ci_high: float
    conclusive: bool
    r_squared: float


def scaling_degree_probe(evaluator, x0) -> ProbeResult:
    """Estimate inf{w : lam^w u(lam x0) -> 0} by a log-log slope fit.

    For a power-law kernel u ~ |x|^-s the slope of log |u(lam x0)| against
    log lam (sampled at the PROBE_LAMBDAS dilations) is -s, so the
    estimate is minus the fitted slope.  A poor linear fit (non-power-law
    behaviour, e.g. logarithms) is reported as inconclusive rather than
    raised.  The evaluator takes all (PROBE_SAMPLES, 2) dilated points at
    once; |u| is each sample's max |.|, or a scalar result at every one."""
    lams = np.geomspace(*PROBE_LAMBDAS, PROBE_SAMPLES)
    v = np.abs(evaluator(lams[:, None] * np.asarray(x0, dtype=float)))
    vals = (np.full(PROBE_SAMPLES, v) if v.ndim == 0
            else v.reshape(PROBE_SAMPLES, -1).max(axis=1))
    if np.any(vals <= 0):
        # identically vanishing or sign-crossing samples: treat as degree 0
        return ProbeResult(0.0, 0.0, 0.0, bool(np.all(vals == vals[0])), 1.0)
    # ordinary least-squares line through (log lam, log |u|): slope,
    # correlation r, and the slope's standard error from the residuals on
    # PROBE_SAMPLES - 2 degrees of freedom
    log_lam, log_val = np.log(lams), np.log(vals)
    dx, dy = log_lam - log_lam.mean(), log_val - log_val.mean()
    sxx, sxy, syy = dx @ dx, dx @ dy, dy @ dy
    slope = sxy / sxx
    resid = dy - slope * dx
    stderr = np.sqrt(resid @ resid / (PROBE_SAMPLES - 2) / sxx)
    r = float(np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)) if syy > 0 else 0.0
    sd = -slope
    half = 2.0 * stderr
    # constant kernels fit perfectly with slope ~ 0; otherwise demand a
    # genuinely linear log-log relation before trusting the slope
    spread = np.ptp(log_val)
    r2 = r * r if spread > 1e-12 else 1.0
    conclusive = spread <= 1e-12 or r2 > 0.98
    return ProbeResult(float(sd), float(sd - half), float(sd + half),
                       bool(conclusive), r2)


# an overflow is a NaN the checks fail on; warnings would only clutter stderr
@np.errstate(over="ignore", invalid="ignore")
def kernel_check(dim: int, mass: float, trials: int, seed: int) -> dict:
    """The kernel-check report with its "pass" verdict: at d = 1 `trials`
    seeded bumps hold the 1-D identity, at d = 2 one bump the Green identity
    and the Dirac kernel the scaling degree d - 1.  A mass past
    `polar_mass_limit` is refused before any quadrature."""
    params = KernelParams(dim, mass)
    report: dict = {"dimension": dim, "mass": mass, "seed": seed}
    if dim == 1:
        rng = random.Random(seed)
        rows = []
        for _ in range(trials):
            center = rng.uniform(-2 * mass, 2 * mass)
            radius, amp = rng.uniform(0.1, mass), rng.uniform(0.5, 2.0)
            f = TestFunction((center,), radius, amp)
            got, want = q_kernel_1d(params, f), clipped_integral(params, f)
            rows.append({"center": center, "radius": radius, "amplitude": amp,
                         "tolerance_fraction": abs(got - want) / _tol_1d(want)})
        # np.max, unlike max, carries a NaN through, and NaN <= 1 fails
        worst = float(np.max([t["tolerance_fraction"] for t in rows],
                             initial=0.0))
        report.update(identity="q_kernel == clipped integral over [-m, m]",
                      worst_tolerance_fraction=worst, trials=rows)
        report["pass"] = worst <= 1.0
    else:
        f = TestFunction((0.3, -0.2), 0.4, 1.0)
        limit = polar_mass_limit(f)
        if mass > limit:  # refused before any quadrature
            raise UsageError(f"mass {mass:g} above {limit:.3g}, the "
                             f"largest the 2d polar rule resolves")
        res = greens_identity_residual(params, f)
        # probe at r << 1/m, where the massive kernel still goes like 1/r
        x0 = np.array([1.0, 0.7]) / max(1.0, mass)
        probe = scaling_degree_probe(lambda x: dirac_kernel_2d(params, x), x0)
        report["greens_identity_residual"] = res
        report["dirac_scaling_degree"] = {
            "estimate": probe.sd, "ci": [probe.ci_low, probe.ci_high],
            "conclusive": probe.conclusive,
        }
        report["pass"] = bool(res <= 1e-6 and abs(probe.sd - (dim - 1)) <= 0.1)
    return report
