"""Gamma-matrix representations of the Euclidean Clifford algebra Cl(d).

The generators satisfy {gamma_i, gamma_j} = 2 delta_ij on C^{N_d} with
N_d = 2^floor(d/2).  We use the recursive Pauli tensor-product construction:
for d = 2m the generators are

    gamma_{2j-1} = sigma3^{(j-1)} x sigma1 x I^{(m-j)}
    gamma_{2j}   = sigma3^{(j-1)} x sigma2 x I^{(m-j)}

and for d = 2m+1 one appends sigma3^{(m)}.  Entries are exactly 0, +-1 or
+-i, so all defining relations hold to machine precision in complex doubles.
The Euclidean metric is delta, hence index raising is trivial and
gamma^mu = gamma_mu throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

MAX_DIM = 12

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class GammaRep:
    """A concrete matrix representation of Cl(d)."""

    dim_spacetime: int
    dim_spinor: int
    gammas: tuple[np.ndarray, ...]
    identity: np.ndarray

    def __post_init__(self):
        assert len(self.gammas) == self.dim_spacetime
        for g in self.gammas:
            assert g.shape == (self.dim_spinor, self.dim_spinor)


def spinor_dimension(d: int) -> int:
    return 2 ** (d // 2)


def _kron_chain(factors):
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def build_gamma_rep(d: int) -> GammaRep:
    """Deterministic gamma matrices for Cl(d), d >= 1.

    For d = 1 the anticommutation relation forces gamma_1^2 = 1; we pick +1.
    """
    if not isinstance(d, int) or d < 1 or d > MAX_DIM:
        raise UsageError(f"dimension must be an integer in 1..{MAX_DIM}, got {d!r}")
    m = d // 2
    gammas = []
    for j in range(1, m + 1):
        pre = [_SIGMA3] * (j - 1)
        post = [np.eye(2, dtype=complex)] * (m - j)
        gammas.append(_kron_chain(pre + [_SIGMA1] + post))
        gammas.append(_kron_chain(pre + [_SIGMA2] + post))
    if d % 2 == 1:
        gammas.append(_kron_chain([_SIGMA3] * m))
    n = spinor_dimension(d)
    for g in gammas:
        g.setflags(write=False)
    ident = np.eye(n, dtype=complex)
    ident.setflags(write=False)
    return GammaRep(d, n, tuple(gammas), ident)


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def verify_clifford(rep: GammaRep, tolerance: float) -> bool:
    """True iff max |{gamma_i,gamma_j} - 2 delta_ij I| <= tolerance over all pairs."""
    if tolerance < 0:
        raise UsageError("tolerance must be nonnegative")
    worst = clifford_defect(rep)
    return worst <= tolerance


def clifford_defect(rep: GammaRep) -> float:
    """Max-norm of the anticommutation-relation residual, brute force over pairs."""
    worst = 0.0
    for i, gi in enumerate(rep.gammas):
        for j, gj in enumerate(rep.gammas):
            target = 2.0 * rep.identity if i == j else np.zeros_like(rep.identity)
            worst = max(worst, float(np.max(np.abs(anticommutator(gi, gj) - target))))
    return worst


def contract_index(rep: GammaRep) -> np.ndarray:
    """Sum_mu gamma^mu gamma_mu; equals d * I in the Euclidean signature."""
    out = np.zeros_like(rep.identity)
    for g in rep.gammas:
        out = out + g @ g
    return out


def rep_to_json(rep: GammaRep) -> dict:
    """JSON-able dict; matrix entries as [re, im] pairs."""
    return {
        "dim_spacetime": rep.dim_spacetime,
        "dim_spinor": rep.dim_spinor,
        "gammas": [
            [[[float(z.real), float(z.imag)] for z in row] for row in g]
            for g in rep.gammas
        ],
    }
