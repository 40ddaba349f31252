"""Action-angle coordinates, the inverse map, and explicit evolution.

The coordinates are actions I_j = 2*pi*lambda_j (strictly increasing,
negative) and angles alpha_j = gamma_j.  The matrix

    M_{kj} = 2*pi*i/(I_k - I_j) * sqrt(I_k/I_j)   (k != j)
    M_{jj} = alpha_j + pi*i/I_j

has the translation-scaling parameters as its spectrum, which inverts the
coordinate map.  The flow is affine: actions frozen, angles drift at -I_j/pi.
Profiles at any time come from a resolvent pairing with the rank-one vectors
X_j = sqrt(|lambda_j|), Y_j = 1/sqrt(|lambda_j|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderingViolation, RootsNotInLowerHalfPlane, SingularResolvent
from .profiles import SolitonParameters
from .spectral import m_formula, spectral_decompose


@dataclass(frozen=True)
class ActionAngles:
    rs: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        rs = np.asarray(self.rs, dtype=float)
        al = np.asarray(self.alphas, dtype=float)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "alphas", al)
        if rs.size != al.size or rs.size < 1:
            raise OrderingViolation("need matching nonempty action/angle lists")
        if np.any(rs >= 0) or np.any(np.diff(rs) <= 0):
            raise OrderingViolation(
                "actions must satisfy r1 < r2 < ... < rN < 0")

    @property
    def n(self):
        return self.rs.size

    @property
    def lambdas(self):
        return self.rs / (2 * np.pi)


def forward_map(params):
    """Phi_N: parameters -> (actions; angles) through the Lax spectrum."""
    return aa_from_spectral(spectral_decompose(params))


def aa_from_spectral(sd):
    return ActionAngles(sd.actions, sd.gammas)


def m_from_aa(aa):
    """The matrix M in action-angle coordinates (module docstring)."""
    return m_formula(aa.lambdas, aa.alphas)


def inverse_map(aa):
    """Phi_N^{-1}: the parameters are the eigenvalues of M."""
    roots = np.linalg.eigvals(m_from_aa(aa))
    if np.any(roots.imag >= 0):
        raise RootsNotInLowerHalfPlane(
            f"spectrum of M left the lower half-plane: {roots}")
    return SolitonParameters(tuple(roots))


def evolve_aa(aa, t):
    """Affine flow: r constant (bitwise), alpha_j -> alpha_j - r_j t / pi."""
    return ActionAngles(aa.rs, aa.alphas - aa.rs * (t / np.pi))


def _xy_vectors(lambdas):
    x = np.sqrt(np.abs(lambdas))
    return x, 1.0 / x


def _resolvent_pairing(m0, shift, lambdas):
    """<(m0 - shift)^{-1} X, Y> batched over the trailing shift axis."""
    x, y = _xy_vectors(lambdas)
    n = lambdas.size
    shift = np.asarray(shift, dtype=complex)
    mats = m0[None, :, :] - shift.reshape(-1, 1, 1) * np.eye(n)[None, :, :]
    rhs = np.tile(x.astype(complex)[None, :, None], (shift.size, 1, 1))
    try:
        sol = np.linalg.solve(mats, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(str(exc)) from exc
    vals = sol @ y
    if not np.all(np.isfinite(vals)):
        raise SingularResolvent("resolvent pairing produced non-finite values")
    return vals.reshape(shift.shape)


def explicit_solution(aa0, t, x):
    """u(t, x) = 2 Im <(M0 - x - (t/pi) diag(I_j))^{-1} X, Y>.

    Vectorized over x (scalar or array); one dense solve per point.
    """
    m0 = m_from_aa(aa0)
    lam = aa0.lambdas
    shift_diag = np.diag(aa0.rs * (t / np.pi))
    xs = np.asarray(x, dtype=float)
    vals = _resolvent_pairing(m0 - shift_diag, xs, lam)
    out = 2 * np.imag(vals)
    if np.asarray(x).shape == ():
        return float(out)
    return out


def pi_u_resolvent(sd, x):
    """Pi u(x) = -i <(M - x)^{-1} X, Y> from spectral data alone."""
    xs = np.asarray(x, dtype=complex)
    vals = -1j * _resolvent_pairing(sd.m_matrix, xs, sd.lambdas)
    if np.asarray(x).shape == ():
        return complex(vals)
    return vals
