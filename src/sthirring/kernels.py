"""Closed-form kernels in one dimension and the massive d=2 reference.

For d = 1 and m > 0 the fundamental solutions are taken literally as

    G_psi(x)    = -i exp(-i m x) Theta(-x + m)
    G_psibar(x) =  i exp( i m x) Theta( x + m)

so their pointwise product is the indicator of [-m, m] and the coincident
covariance acts on a test function as the clipped integral over [-m, m];
both facts are exercised numerically here.  The step arguments mix x and m
dimensionally but are internally consistent with the clipped-integral
identity.  `q_kernel_1d` integrates the literal kernels by Gauss-Legendre
on the bump's support split at +-m, and `clipped_integral` keeps adaptive
quadrature as its independent oracle.

For d = 2 the scalar Green function of (-Laplace + m^2) is the modified
Bessel kernel K_0(m r)/(2 pi), logarithmic at m = 0; it is validated
against a convolution identity with an analytic bump Laplacian rather than
asserted.  The convolution is a polar rule over the bump's support disk:
centred at the evaluation point, with r = R(theta) u^2 absorbing the
r log r singularity, Gauss-Legendre in u and the periodic trapezoid rule
in theta.  Both fixed rules run at two resolutions and raise
NumericalError when the two disagree.  The first-order Dirac kernel built
from the Green function scales like 1/r, matching the d-1 scaling degree
that drives the power counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import integrate, special

from . import clifford


class KernelError(ValueError):
    pass


class NumericalError(RuntimeError):
    """Quadrature failed to converge to the requested tolerance."""


class SingularPointError(ValueError):
    pass


QUAD_TOL_1D = 1e-10
QUAD_TOL_2D = 1e-8
# Gauss-Legendre nodes per subinterval in q_kernel_1d, and (radial, angular)
# nodes of the polar rule in greens_identity_residual.  Each rule also runs
# at twice these counts; the two results must agree within the tolerance.
Q_KERNEL_1D_NODES = 64
GREEN_2D_NODES = (128, 256)
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
            raise KernelError("kernel backend covers d = 1 and d = 2")
        if self.m < 0:
            raise KernelError("mass must be nonnegative")


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported radial bump A*exp(-1/(1-t^2)), t = |x-c|/r."""

    __test__ = False  # despite the name, nothing for pytest to collect

    center: tuple
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise KernelError("bump radius must be positive")
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
        raise KernelError("propagator_1d needs d = 1")
    if params.m <= 0:
        raise KernelError("the one-dimensional closed forms assume m > 0")
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
        raise KernelError("q_kernel_1d needs d = 1 data")
    if params.m <= 0:
        raise KernelError("m > 0 required")
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
    if abs(val - coarse) > max(QUAD_TOL_1D, abs(val) * 1e-8):
        raise NumericalError(f"1d Gauss-Legendre rules disagree by "
                             f"{abs(val - coarse):g} on value {val:g}")
    return complex(val)


def clipped_integral(params: KernelParams, f: TestFunction) -> float:
    """Oracle for q_kernel_1d: integral of f over [-m, m] by quadrature."""
    (lo,), (hi,) = f.support()
    a, b = max(lo, -params.m), min(hi, params.m)
    if a >= b:
        return 0.0
    val, err = integrate.quad(f, a, b, epsabs=QUAD_TOL_1D, limit=200)
    if err > max(QUAD_TOL_1D * 100, abs(val) * 1e-8):
        raise NumericalError(f"oracle quadrature error {err:g}")
    return val


def green_2d(params: KernelParams, x) -> float:
    """Fundamental solution of (-Laplace + m^2) on the plane at x != 0."""
    if params.d != 2:
        raise KernelError("green_2d needs d = 2")
    x = np.asarray(x, dtype=float)
    r = float(np.hypot(x[0], x[1])) if x.ndim == 1 else None
    if r is None:
        raise KernelError("green_2d evaluates one point at a time")
    if r == 0.0:
        raise SingularPointError("Green function evaluated on the diagonal")
    return float(_radial_green(params.m, r))


def _radial_green(m: float, r):
    """The d=2 Green function at distance r > 0, elementwise on arrays."""
    if m > 0:
        return special.k0(m * r) / (2.0 * np.pi)
    return -np.log(r) / (2.0 * np.pi)


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


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
        raise KernelError("needs d = 2 data")
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
    if abs(val - coarse) > QUAD_TOL_2D:
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
        raise KernelError("dirac_kernel_2d needs d = 2")
    x = np.asarray(x, dtype=float)
    r = float(np.hypot(x[0], x[1]))
    if r == 0.0:
        raise SingularPointError("Dirac kernel evaluated on the diagonal")
    rep = _gamma_rep_2d()
    m = params.m
    g0 = _radial_green(m, r)
    if m > 0:
        dg = -m * special.k1(m * r) / (2.0 * np.pi)
    else:
        dg = -1.0 / (2.0 * np.pi * r)
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
