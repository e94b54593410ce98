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
(Takahasi & Mori 1974).

For d = 2 the scalar Green function of (-Laplace + m^2) is the modified
Bessel kernel K_0(m r)/(2 pi), logarithmic at m = 0; it is validated
against a convolution identity with an analytic bump Laplacian rather than
asserted.  The convolution is a polar rule over the bump's support disk:
centred at the evaluation point, with r = R(theta) u^2 absorbing the
r log r singularity, Gauss-Legendre in u and the periodic trapezoid rule
in theta.  All three fixed rules run at two resolutions and raise
NumericalError unless the two agree (a NaN never agrees).  The first-order
Dirac kernel built from the Green function scales like 1/r, matching the
d-1 scaling degree that drives the power counting.  K_0 and K_1 come from
`bessel_k01`: the power series for x <= 2 and the trapezoid rule on the
integral representation above it (Abramowitz & Stegun 9.6.13 and 9.6.24).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import clifford
from .errors import NumericalError, UsageError

QUAD_TOL_1D = 1e-10
QUAD_TOL_2D = 1e-8
# Gauss-Legendre nodes per subinterval in q_kernel_1d, and (radial, angular)
# nodes of the polar rule in greens_identity_residual.  Each rule also runs
# at twice these counts; the two results must agree within the tolerance.
Q_KERNEL_1D_NODES = 64
GREEN_2D_NODES = (128, 256)
# Step of the tanh-sinh rule in clipped_integral (also run at half the
# step), and the half-width of its node range in the rule's variable.
TANH_SINH_STEP = 1.0 / 16
_TANH_SINH_T = 3.5
# scaling_degree_probe fits PROBE_SAMPLES dilations, log-spaced over the
# range PROBE_LAMBDAS.
PROBE_LAMBDAS = (1e-4, 1e-1)
PROBE_SAMPLES = 40
_ANGLE_CHUNK = 32  # angles per block; bounds the polar rule's arrays to ~1 MB


@dataclass(frozen=True)
class KernelParams:
    d: int
    m: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise UsageError("kernel backend covers d = 1 and d = 2")
        if not 0 <= self.m < np.inf:
            raise UsageError("mass must be finite and nonnegative")


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

    def laplacian(self, x):
        """Analytic Laplacian; g(s) = exp(-1/(1-s)) in s = t^2 gives
        Lap f = A * (4 s g'' + 2 dim g') / r^2."""
        raw = self._t2(np.asarray(x, dtype=float))
        scalar_input = np.asarray(raw).ndim == 0
        t2 = np.atleast_1d(raw)
        out = np.zeros_like(t2)
        inside = t2 < 1.0
        s = t2[inside]
        g = np.exp(-1.0 / (1.0 - s))
        gp = -g / (1.0 - s) ** 2
        gpp = g * (1.0 / (1.0 - s) ** 4 - 2.0 / (1.0 - s) ** 3)
        out[inside] = self.amplitude * (4.0 * s * gpp + 2.0 * self.dim * gp) \
            / self.radius ** 2
        return float(out[0]) if scalar_input else out


def theta(x) -> float:
    """Heaviside step with theta(0) = 1; boundary values are measure zero
    for every identity checked here."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0)


def propagator_1d(params: KernelParams, x):
    """(G_psi(x), G_psibar(x)) for the massive one-dimensional operator."""
    if params.d != 1:
        raise UsageError("propagator_1d needs d = 1")
    if params.m <= 0:
        raise UsageError("the one-dimensional closed forms assume m > 0")
    x = np.asarray(x, dtype=float)
    m = params.m
    g = -1j * np.exp(-1j * m * x) * theta(-x + m)
    gbar = 1j * np.exp(1j * m * x) * theta(x + m)
    return g, gbar


def q_kernel_1d(params: KernelParams, f: TestFunction) -> complex:
    """Coincident covariance applied to f: integral of G_psi G_psibar f.

    Equals the clipped integral of f over [-m, m] for the literal kernels.
    """
    if params.d != 1 or f.dim != 1:
        raise UsageError("q_kernel_1d needs d = 1 data")
    if params.m <= 0:
        raise UsageError("m > 0 required")
    (lo,), (hi,) = f.support()
    m = params.m
    cuts = np.array([lo, *sorted(p for p in (-m, m) if lo < p < hi), hi])
    starts, widths = cuts[:-1, None], np.diff(cuts)[:, None]

    def rule(n):
        u, w = _gauss_legendre(n)
        x = starts + widths * u  # one row of nodes per subinterval
        g, gbar = propagator_1d(params, x)
        return float(np.sum((g * gbar).real * f(x) * widths * w))

    coarse, val = rule(Q_KERNEL_1D_NODES), rule(2 * Q_KERNEL_1D_NODES)
    if not abs(val - coarse) <= max(QUAD_TOL_1D, abs(val) * 1e-8):
        raise NumericalError(f"1d Gauss-Legendre rules disagree by "
                             f"{abs(val - coarse):g} on value {val:g}")
    return complex(val)


def clipped_integral(params: KernelParams, f: TestFunction) -> float:
    """Oracle for q_kernel_1d: integral of f over [-m, m] by quadrature.

    Uses the tanh-sinh rule on [a, b] = supp f intersected with [-m, m],
    x = (a+b)/2 + (b-a)/2 tanh(pi/2 sinh t), with the trapezoid rule in t
    at TANH_SINH_STEP and at half of it.  Raises NumericalError when the
    two differ by more than max(QUAD_TOL_1D, 1e-8 |value|).
    """
    (lo,), (hi,) = f.support()
    a, b = max(lo, -params.m), min(hi, params.m)
    if a >= b:
        return 0.0
    mid, half = (a + b) / 2.0, (b - a) / 2.0

    def rule(h):
        n = np.ceil(_TANH_SINH_T / h)
        t = h * np.arange(-n, n + 1)
        s = 0.5 * np.pi * np.sinh(t)
        w = 0.5 * np.pi * np.cosh(t) / np.cosh(s) ** 2
        return float(half * h * np.sum(w * f(mid + half * np.tanh(s))))

    coarse, val = rule(TANH_SINH_STEP), rule(TANH_SINH_STEP / 2.0)
    if not abs(val - coarse) <= max(QUAD_TOL_1D, abs(val) * 1e-8):
        raise NumericalError(f"1d tanh-sinh rules disagree by "
                             f"{abs(val - coarse):g} on value {val:g}")
    return val


def green_2d(params: KernelParams, x) -> float:
    """Fundamental solution of (-Laplace + m^2) on the plane at x != 0."""
    if params.d != 2:
        raise UsageError("green_2d needs d = 2")
    x = np.asarray(x, dtype=float)
    r = float(np.hypot(x[0], x[1])) if x.ndim == 1 else None
    if r is None:
        raise UsageError("green_2d evaluates one point at a time")
    if r == 0.0:
        raise UsageError("Green function evaluated on the diagonal")
    return float(_radial_green(params.m, r))


def _radial_green(m: float, r):
    """The d=2 Green function at distance r > 0, elementwise on arrays."""
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
    k0, k1 = np.empty_like(flat), np.empty_like(flat)
    small = flat <= 2.0
    if small.any():  # skip an empty branch: scalar calls are frequent
        s = flat[small]
        q = s * s / 4.0
        acc = np.empty((4, s.size))
        acc[:] = _K_SERIES[-1]
        for row in _K_SERIES[-2::-1]:  # Horner in q, four series at once
            acc *= q
            acc += row
        i0, a0, j1, a1 = acc
        log_term = np.log(s / 2.0) + _EULER_GAMMA
        k0[small] = a0 - log_term * i0
        k1[small] = 1.0 / s + (s / 2.0) * (log_term * j1 - a1 / 2.0)
    if not small.all():
        b = flat[~small][:, None]
        t_max = np.arccosh(1.0 + 45.0 / b)
        t = t_max * (np.arange(_K_TRAPEZOID_NODES + 1) / _K_TRAPEZOID_NODES)
        # exp(-x cosh t) = exp(-x) exp(-2x sinh^2(t/2)), cancellation-free
        e = np.exp(-2.0 * b * np.sinh(t / 2.0) ** 2)
        e[:, [0, -1]] *= 0.5
        scale = np.exp(-b[:, 0]) * t_max[:, 0] / _K_TRAPEZOID_NODES
        k0[~small] = scale * e.sum(axis=1)
        k1[~small] = scale * (e * np.cosh(t)).sum(axis=1)
    return k0.reshape(x.shape)[()], k1.reshape(x.shape)[()]


@cache
def _gauss_legendre(n: int):
    """Nodes and weights (read-only arrays) of the n-point Gauss-Legendre
    rule on [0, 1], built once per n and shared."""
    t, w = leggauss(n)
    u, w = (t + 1.0) / 2.0, w / 2.0
    u.flags.writeable = w.flags.writeable = False
    return u, w


def greens_identity_residual(params: KernelParams, f: TestFunction,
                             x) -> float:
    """| int G(x-y) (-Lap + m^2) f(y) dy  -  f(x) | for a 2d bump.

    The integral runs over the bump's support disk in polar coordinates
    y = o + r e(theta), r in [0, R(theta)], where R(theta) is where the ray
    leaves the disk.  The origin o is x when x lies inside the disk; then
    r = R u^2 turns the r log r behaviour of r G(r) at r = 0 into
    u^3 log u, which Gauss-Legendre in u integrates to high order.
    Otherwise o is the bump's centre and the kernel is smooth on the disk.
    Theta uses the periodic trapezoid rule.  Raises NumericalError when the
    rule at GREEN_2D_NODES and at twice as many nodes per axis disagree by
    more than QUAD_TOL_2D.
    """
    if params.d != 2 or f.dim != 2:
        raise UsageError("needs d = 2 data")
    x = np.asarray(x, dtype=float)
    centre = np.asarray(f.center)
    origin, d = x, x - centre
    gap = f.radius ** 2 - float(d @ d)
    if gap <= 0.0:  # x outside the support (or on its edge)
        origin, d, gap = centre, np.zeros(2), f.radius ** 2
    offset = x - origin
    m = params.m

    def rule(n_r, n_theta):
        u, w = _gauss_legendre(n_r)
        total = 0.0
        for start in range(0, n_theta, _ANGLE_CHUNK):
            theta = (2.0 * np.pi / n_theta) * np.arange(
                start, min(start + _ANGLE_CHUNK, n_theta))
            e = np.stack((np.cos(theta), np.sin(theta)), axis=-1)
            b = e @ d
            root = np.sqrt(b * b + gap)
            # positive root of R^2 + 2bR - gap, without cancellation
            R = np.where(b > 0.0, gap / (root + b), root - b)[:, None]
            r = R * u ** 2
            y = origin + r[..., None] * e[:, None, :]
            src = -f.laplacian(y) + m * m * f(y)
            # x - y = offset - r e, exactly r e when centred at x
            dist = np.hypot(offset[0] - r * e[:, :1], offset[1] - r * e[:, 1:])
            jacobian = 2.0 * R * R * u ** 3  # r dr = 2 R^2 u^3 du
            total += np.sum(_radial_green(m, dist) * src * jacobian * w)
        return total * (2.0 * np.pi / n_theta)

    n_r, n_theta = GREEN_2D_NODES
    coarse, val = rule(n_r, n_theta), rule(2 * n_r, 2 * n_theta)
    if not abs(val - coarse) <= QUAD_TOL_2D:
        raise NumericalError(
            f"2d polar rules disagree by {abs(val - coarse):g}")
    return abs(val - float(f(x)))


@cache
def _gamma_rep_2d():
    """The Cl(2) representation (read-only arrays), built once per process
    and shared."""
    return clifford.build_gamma_rep(2)


def dirac_kernel_2d(params: KernelParams, x) -> np.ndarray:
    """First-order massive kernel (i gamma^mu d_mu + m) G applied to the
    scalar Green function; the matrix whose entries scale like 1/r."""
    if params.d != 2:
        raise UsageError("dirac_kernel_2d needs d = 2")
    x = np.asarray(x, dtype=float)
    r = float(np.hypot(x[0], x[1]))
    if r == 0.0:
        raise UsageError("Dirac kernel evaluated on the diagonal")
    rep = _gamma_rep_2d()
    m = params.m
    if m > 0:
        k0, k1 = bessel_k01(m * r)
        g0, dg = k0 / (2.0 * np.pi), -m * k1 / (2.0 * np.pi)
    else:
        g0, dg = _radial_green(m, r), -1.0 / (2.0 * np.pi * r)
    grad = dg * x / r
    out = m * g0 * rep.identity.astype(complex)
    for mu in range(2):
        out = out + 1j * rep.gammas[mu] * grad[mu]
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
    raised.
    """
    lams = np.geomspace(*PROBE_LAMBDAS, PROBE_SAMPLES)
    x0 = np.asarray(x0, dtype=float)
    vals = []
    for lam in lams:
        v = evaluator(lam * x0)
        vals.append(abs(complex(v)) if np.isscalar(v) or np.asarray(v).ndim == 0
                    else float(np.max(np.abs(v))))
    vals = np.asarray(vals)
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
