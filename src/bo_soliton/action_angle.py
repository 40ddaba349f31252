"""Action-angle coordinates, the inverse map, and explicit evolution.

The coordinates are actions I_j = 2*pi*lambda_j (strictly increasing,
negative) and angles alpha_j = gamma_j.  The matrix

    M_{kj} = 2*pi*i/(I_k - I_j) * sqrt(I_k/I_j)   (k != j)
    M_{jj} = alpha_j + pi*i/I_j

has the translation-scaling parameters as its spectrum, which inverts the
coordinate map.  The flow is affine: actions frozen, angles drift at -I_j/pi.
``explicit_solution`` and Pi u come from one resolvent pairing of M with
the rank-one vectors X_j = sqrt(|lambda_j|), Y_j = 1/sqrt(|lambda_j|)
(``_resolvent_pairing``, which takes M itself).  The eigenvalues of M
(zgeev) and its Schur form (zgees) come from :mod:`bo_soliton._lapack`,
which loads scipy's LAPACK extension at the first call, not when this
module is imported, and never imports scipy.linalg.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (
    DomainError,
    EigensolveFailed,
    NonFiniteInput,
    OrderingViolation,
    RootsNotInLowerHalfPlane,
    SingularResolvent,
)
from .profiles import SolitonParameters, real_array
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
        rs = real_array(self.rs, "actions")
        al = real_array(self.alphas, "angles")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "alphas", al)
        if rs.ndim != 1 or rs.shape != al.shape or rs.size < 1:
            raise OrderingViolation(
                "need matching nonempty 1-D action/angle lists")
        if not (all(np.isfinite(rs).tolist())
                and all(np.isfinite(al).tolist())):
            raise NonFiniteInput("actions and angles must be finite")
        if not (rs[-1] < 0 and all((rs[:-1] < rs[1:]).tolist())):
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
    roots, _, _, info = _lapack.zgeev(m_from_aa(aa), compute_vl=0,
                                      compute_vr=0, overwrite_a=1)
    if info != 0:
        raise EigensolveFailed(f"eigenvalues of M failed: zgeev info {info}")
    # argmax picks a NaN first
    high = roots.imag.argmax()
    if not roots.imag[high] < 0:
        raise RootsNotInLowerHalfPlane("spectrum of M left the lower "
                                       f"half-plane: root {high} is "
                                       f"{roots[high]}")
    return SolitonParameters(roots)


def evolve_aa(aa, t):
    """Affine flow: r constant (bitwise), alpha_j -> alpha_j - r_j t / pi;
    an angle that overflows, or a NaN t, raises NonFiniteInput, and a
    complex t DomainError."""
    t = real_array(t, "t")
    with np.errstate(over="ignore"):
        return ActionAngles(aa.rs, aa.alphas - aa.rs * (t / np.pi))


def _unsorted(eigenvalue):
    """zgees's selection callback, which it does not call without sorting."""


def _block_points(n):
    """Points per block of the back substitution at N = n: 32768 // N, so
    that each N x B complex work array stays near 512 KB, inside the cache;
    at least 256 (``_resolvent_pairing``)."""
    return max(256, 32768 // n)


def _resolvent_pairing(m, lambdas, shift):
    """<(m - s)^{-1} X, Y> for every entry s of ``shift``, in its shape,
    with X_j = sqrt|lambda_j| and Y_j = 1/X_j; returns it with the complex
    Schur form ``(T, Q)`` of m.

    m = Q T Q* with T upper triangular, so the pairing is c (T - s)^{-1} b
    with b = Q* X and c = Y^T Q, both formed once.  (T - s) w = b is solved
    by back substitution over the N rows, each row for a block of B shifts
    at once (B = ``_block_points(N)``); no matrix is factored per shift.
    The two N x B work arrays serve every block, so the memory is O(N B),
    not O(N P) for P shifts.

    A shift within tol = SINGULAR_RTOL * max|T| of a diagonal entry of T,
    an eigenvalue of m, raises SingularResolvent before its block divides, and
    so does a non-finite result (overflow, or a NaN shift).  That test is an
    N x B modulus pass per block, skipped when every shift lies in the
    closed upper half-plane (every real one does) and every Im T_kk < -tol:
    then |T_kk - s| >= Im s - Im T_kk > tol for every pair.  The Schur form
    is one call of LAPACK zgees, with the wrapper's default workspace
    (no query); a nonzero info raises EigensolveFailed.  m must be finite, as
    ``m_formula`` guarantees.
    """
    tri, _, _, q, _, info = _lapack.zgees(_unsorted, m)
    if info != 0:
        raise EigensolveFailed(f"Schur form of M failed: zgees info {info}")
    x = np.sqrt(np.abs(lambdas))
    s = np.asarray(shift).ravel()
    n, size, block = lambdas.size, s.size, _block_points(lambdas.size)
    diag, scale = np.diagonal(tri)[:, None], np.abs(tri).max()
    tol = SINGULAR_RTOL * scale
    # not min|Im T_kk| > tol: zgees does not promise Im T_kk < 0
    regular = ((np.isrealobj(s) or (s.imag >= 0).all())
               and diag.imag.max() < -tol)
    b, c = q.conj().T @ x, (1.0 / x) @ q
    # flat, so that each block's (N, width) view is C-contiguous
    gaps_buf = np.empty(n * min(block, size), dtype=complex)
    w_buf = np.empty_like(gaps_buf)
    vals = np.empty(size, dtype=complex)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        gaps = np.subtract(diag, s[lo:hi],
                           out=gaps_buf[:n * (hi - lo)].reshape(n, -1))
        if not regular:
            closest = np.abs(gaps).min()
            if closest <= tol:
                raise SingularResolvent(f"shift within {closest:.3e} of an "
                                        f"eigenvalue (max|T| = {scale:.3e})")
        w = w_buf[:n * (hi - lo)].reshape(n, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n - 1, -1, -1):
                np.divide(b[k] - tri[k, k + 1:] @ w[k + 1:], gaps[k],
                          out=w[k])
            np.matmul(c, w, out=vals[lo:hi])
    if not np.all(np.isfinite(vals)):
        raise SingularResolvent("resolvent pairing produced non-finite values")
    return vals.reshape(np.shape(shift)), (tri, q)


def explicit_solution(aa0, t, x):
    """u(t, x) = 2 Im <(M(t) - x)^{-1} X, Y>, where M(t) is M of the flowed
    coordinates ``evolve_aa(aa0, t)``, i.e. M0 - (t/pi) diag(I_j).

    Vectorized over real x (a scalar gives a float, an array keeps its
    shape): one complex Schur form of M(t), then back substitution over the
    points in cache-sized blocks (``_resolvent_pairing``), in O(N B)
    memory for B points a block, not O(N P) for P points.  The per-block
    singular-point test runs only when an eigenvalue of M(t) lies within
    SINGULAR_RTOL * max|T| of the real axis.  A complex x raises DomainError
    (``pi_u_resolvent`` pairs complex points), and a non-finite t
    NonFiniteInput.  At debug level the ``bo_soliton.action_angle`` logger
    gets N, the point count, the Schur residual max|Q T Q* - M| and the
    seconds spent.
    """
    start = time.perf_counter()
    if np.iscomplexobj(x):
        raise DomainError("explicit_solution takes real points x; "
                          "pi_u_resolvent pairs complex ones")
    m = m_from_aa(evolve_aa(aa0, t))
    xs = np.asarray(x, dtype=float)
    vals, (tri, q) = _resolvent_pairing(m, aa0.lambdas, xs)
    out = 2 * np.imag(vals)
    if log.isEnabledFor(logging.DEBUG):
        resid = np.abs(q @ tri @ q.conj().T - m).max()
        log.debug("explicit_solution: N=%d, %d points, schur residual %.2e, "
                  "%.4f s", aa0.n, xs.size, resid, time.perf_counter() - start)
    if xs.shape == ():
        return float(out)
    return out


def pi_u_resolvent(sd, x):
    """Pi u(x) = -i <(M - x)^{-1} X, Y> from spectral data alone; the
    per-block singular-point test runs when some x lies below the real
    axis, or an eigenvalue of M within SINGULAR_RTOL * max|T| of it."""
    xs = np.asarray(x, dtype=complex)
    vals = -1j * _resolvent_pairing(sd.m_matrix, sd.lambdas, xs)[0]
    if np.asarray(x).shape == ():
        return complex(vals)
    return vals
