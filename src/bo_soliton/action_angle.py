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

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zgeev

from .errors import (
    EigensolveFailed,
    NonFiniteInput,
    OrderingViolation,
    RootsNotInLowerHalfPlane,
    SingularResolvent,
)
from .profiles import SolitonParameters
from .spectral import m_formula, spectral_decompose

log = logging.getLogger("bo_soliton.action_angle")

# A shift within SINGULAR_RTOL * max|T| of a diagonal entry of the Schur
# factor T is an eigenvalue of the matrix to within about 4500 rounding
# errors of its largest entry; the resolvent pairing refuses it.
SINGULAR_RTOL = 1e-12


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
        if not (np.isfinite(rs).all() and np.isfinite(al).all()):
            raise NonFiniteInput("actions and angles must be finite")
        if not (rs[-1] < 0 and (rs[:-1] < rs[1:]).all()):
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
    """Phi_N^{-1}: the parameters are the eigenvalues of M (LAPACK zgeev)."""
    roots, _, _, info = zgeev(m_from_aa(aa), compute_vl=0, compute_vr=0)
    if info != 0:
        raise EigensolveFailed(f"eigenvalues of M failed: zgeev info {info}")
    if not roots.imag.max() < 0:
        raise RootsNotInLowerHalfPlane(
            f"spectrum of M left the lower half-plane: {roots}")
    return SolitonParameters(roots)


def evolve_aa(aa, t):
    """Affine flow: r constant (bitwise), alpha_j -> alpha_j - r_j t / pi."""
    return ActionAngles(aa.rs, aa.alphas - aa.rs * (t / np.pi))


def _xy_vectors(lambdas):
    x = np.sqrt(np.abs(lambdas))
    return x, 1.0 / x


def _resolvent_pairing(schur, shift, lambdas):
    """<(m0 - s)^{-1} X, Y> for every entry s of ``shift``, in its shape.

    ``schur`` is the complex Schur form ``(T, Q)`` of m0, m0 = Q T Q* with
    T upper triangular, so the pairing is c (T - s)^{-1} b with b = Q* X
    and c = Y^T Q, both formed once.  (T - s) w = b is solved by back
    substitution over the N rows, each row for every shift at once; no
    matrix is factored per shift.  A shift within SINGULAR_RTOL * max|T| of
    a diagonal entry of T, an eigenvalue of m0, raises SingularResolvent,
    and so does a non-finite result (overflow, or a NaN shift).
    """
    tri, q = schur
    x, y = _xy_vectors(lambdas)
    s = np.asarray(shift).ravel()
    gaps = np.diagonal(tri)[:, None] - s
    closest, scale = np.abs(gaps).min(initial=np.inf), np.abs(tri).max()
    if closest <= SINGULAR_RTOL * scale:
        raise SingularResolvent(f"shift within {closest:.3e} of an "
                                f"eigenvalue (max|T| = {scale:.3e})")
    b = q.conj().T @ x
    w = np.empty(gaps.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(lambdas.size - 1, -1, -1):
            w[k] = (b[k] - tri[k, k + 1:] @ w[k + 1:]) / gaps[k]
        vals = (y @ q) @ w
    if not np.all(np.isfinite(vals)):
        raise SingularResolvent("resolvent pairing produced non-finite values")
    return vals.reshape(np.shape(shift))


def explicit_solution(aa0, t, x):
    """u(t, x) = 2 Im <(M0 - x - (t/pi) diag(I_j))^{-1} X, Y>.

    Vectorized over x (a scalar gives a float, an array keeps its shape):
    one complex Schur form of M0 - (t/pi) diag(I_j), then back substitution
    over all points at once (``_resolvent_pairing``).  At debug level the
    ``bo_soliton.action_angle`` logger gets N, the point count, the Schur
    residual max|Q T Q* - M| and the seconds spent.
    """
    start = time.perf_counter()
    m = m_from_aa(aa0) - np.diag(aa0.rs * (t / np.pi))
    schur = scipy.linalg.schur(m, output="complex")
    xs = np.asarray(x, dtype=float)
    out = 2 * np.imag(_resolvent_pairing(schur, xs, aa0.lambdas))
    if log.isEnabledFor(logging.DEBUG):
        tri, q = schur
        resid = np.abs(q @ tri @ q.conj().T - m).max()
        log.debug("explicit_solution: N=%d, %d points, schur residual %.2e, "
                  "%.4f s", aa0.n, xs.size, resid, time.perf_counter() - start)
    if xs.shape == ():
        return float(out)
    return out


def pi_u_resolvent(sd, x):
    """Pi u(x) = -i <(M - x)^{-1} X, Y> from spectral data alone."""
    xs = np.asarray(x, dtype=complex)
    schur = scipy.linalg.schur(sd.m_matrix, output="complex")
    vals = -1j * _resolvent_pairing(schur, xs, sd.lambdas)
    if np.asarray(x).shape == ():
        return complex(vals)
    return vals
