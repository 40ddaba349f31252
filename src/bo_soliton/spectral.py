"""Spectral analysis of the Lax operator on the pure-point subspace.

For an N-soliton profile u, the operator L_u = D - T_u restricted to the
N-dimensional invariant subspace span{x^k / Q_u} has N simple negative
eigenvalues.  The forward map works in the orthonormal Malmquist-Takenaka
basis of that subspace (Nikolski, *Operators, Functions, and Systems*, 2002)

    b_k = i sqrt(eta_k / pi) / (x - z_k) * prod_{m<k} (x - conj z_m)/(x - z_m).

There the frequency-shift generator G is the upper-triangular matrix
diag(z) - 2i triu(s s^T, 1), s_k = sqrt(eta_k), and L_u is the unique
solution L of G L - L G* = iI, the pairing of L_u with G that Gerard &
Kappeler (CPAM 74, 2021) use on the torus.  One triangular Sylvester solve
(Bartels & Stewart 1972) gives L and one Hermitian eigensolve its
eigenpairs; M = U* G U then gives the angles gamma_j = Re M_jj.  The
module needs numpy and scipy alone: the eigenfunctions in pole-residue form
(``eigen_coeffs``, ``eigenfunctions``, ``mt_residues``) and the other routes
in the partial-fraction basis 1/(x - z_r) live in :mod:`bo_soliton.oracle`.
The LAPACK and BLAS routines come from :mod:`bo_soliton._lapack`, which
loads scipy's compiled LAPACK and BLAS extensions at the first call, not
when this module is imported, and never imports scipy.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import frexp, ldexp, sqrt

import numpy as np

from . import _lapack
from .errors import (
    DegenerateSpectrum,
    EigensolveFailed,
    InvariantViolation,
    NonFiniteInput,
    PositivityFailure,
)

GAP_TOL = 1e-10
IM_M_TOL = 1e-9
# max|2 |lambda_j| p_j^2 - 1|, p = U* s: the Wu identity <u, phi_j>^2 =
# 2 pi |lambda_j| in the MT basis, at criterion 3's tolerance
WU_TOL = 1e-9
UNIT_SCALE_ETA = 1024.0


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues, angles and the generator matrix M of L_u.

    ``zs`` are the poles and ``vectors`` the phase-fixed eigenvectors in the
    Malmquist-Takenaka basis (columns).  Only :func:`spectral_decompose`
    builds one, after its gates, which are the invariants of the record:
    ``lambdas`` (float64) are strictly negative and strictly increasing with
    gaps above GAP_TOL * |lambda_1|, ``gammas`` (float64) is the real
    diagonal of ``m_matrix`` (complex128), and the Wu and Im M identities
    hold within WU_TOL and IM_M_TOL (times the scale a of M, below).
    """

    lambdas: np.ndarray
    gammas: np.ndarray
    m_matrix: np.ndarray
    zs: tuple
    vectors: np.ndarray

    @property
    def n(self):
        return self.lambdas.size

    @property
    def actions(self):
        return 2 * np.pi * self.lambdas


@lru_cache(maxsize=64)
def _fixed(n):
    """Read-only constants of size n: the strict upper mask and iI (Fortran)."""
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    eye_i = np.asfortranarray(1j * np.eye(n))
    upper.flags.writeable = eye_i.flags.writeable = False
    return upper, eye_i


def mt_generator(zs):
    """G = diag(z) - 2i triu(s s^T, 1) in the Malmquist-Takenaka basis, and s.

    s_k = sqrt(eta_k), so (G - G*)/2i = -s s^T and Im M = -p p* <= 0 in any
    orthonormal eigenbasis, p = U* s.  G is in Fortran order, which the
    LAPACK and BLAS calls of :func:`spectral_decompose` read without a copy.
    """
    z = np.asarray(zs, dtype=complex)
    n = z.size
    s = np.sqrt(-z.imag)
    gmat = np.zeros((n, n), dtype=complex, order="F")
    np.multiply(s[:, None], -2 * s, out=gmat.imag, where=_fixed(n)[0])
    gmat.flat[::n + 1] = z
    return gmat, s


def mt_lax(gmat, scale=1.0):
    """L_u in the Malmquist-Takenaka basis: the solution of G L - L G* = iI.

    G is upper triangular, so this is one LAPACK ztrsyl call.  The spectra
    of G (lower half-plane) and G* (upper) are disjoint, so the solution is
    unique and Hermitian; in floats they nearly meet (ztrsyl info 1) when
    some eta is tiny next to max|z|; the error names both times ``scale``.
    """
    lmat, scale_, info = _lapack.ztrsyl(gmat, gmat, _fixed(len(gmat))[1],
                                        trana="N", tranb="C", isgn=-1)
    if info != 0:
        z = gmat.diagonal()
        raise InvariantViolation(
            f"Sylvester solve failed: ztrsyl info {info}: the spectra of G and "
            f"G* nearly meet (min eta {-z.imag.max() * scale:.3g}, max|z| "
            f"{abs(z).max() * scale:.3g})")
    if scale_ != 1:
        lmat /= scale_
    return lmat


def spectral_decompose(params):
    """Eigen-decomposition of L_u restricted to the pure-point subspace.

    In the orthonormal Malmquist-Takenaka basis (module docstring) the
    generator G has a closed form and L = L_u solves G L - L G* = iI; one
    triangular Sylvester solve (LAPACK ztrsyl) and one Hermitian eigensolve
    (zheevd) give lambda and U.  Each eigenvector's phase is fixed so that
    p = U* s is real positive, which is <u, phi_j> > 0 because
    Pi u = -2 sqrt(pi) L s in this basis.  Then M = U* G U,
    M_kj = <G phi_j, phi_k>, and gamma_j = Re M_jj.

    Gates, run in this order; the first that fails raises, and each is
    tripped by NaN as well:

    1. a nonzero ztrsyl info (InvariantViolation);
    2. a nonzero zheevd info (EigensolveFailed);
    3. strictly negative eigenvalues (PositivityFailure);
    4. eigenvalue gaps above GAP_TOL * |lambda_1| (DegenerateSpectrum);
    5. the Wu identity 2 |lambda_j| p_j^2 = 1 within WU_TOL.  A vanished
       <u, phi_j> (below 1e-10 of its Wu value) always fails it; when it
       fails, a vanished pairing is the error raised (PositivityFailure,
       naming the j of the smallest pairing), otherwise the Wu defect
       (InvariantViolation);
    6. Im M = -p p^T within IM_M_TOL (InvariantViolation).

    The last identity holds exactly, since Im M = (M - M*)/2i =
    U* ((G - G*)/2i) U = -(U* s)(U* s)^T; its gate is
    ||M - M* + 2i p p^T||_F / 2 = ||Im M + p p^T||_F <= IM_M_TOL, and by
    Weyl's inequality that bounds the top eigenvalue of the computed Im M
    by the same IM_M_TOL, without an eigensolve.  ``params`` must be a
    :class:`SolitonParameters`, which holds finite, pairwise distinct
    parameters in the lower half-plane, read here as ``zs_array``.

    As IM_M_TOL is absolute, a is read off the poles and G built from z / a:
    a = 4^floor(log4 max eta) if max eta > UNIT_SCALE_ETA = 4^5, else 1; the
    result is lambda / a, gamma * a, M * a and U, exact as a is a power of 2.
    """
    z = params.zs_array
    top = sqrt(-z.imag[z.imag.argmin()])  # sqrt(max eta); argmin beats min
    a = 1.0
    if top > sqrt(UNIT_SCALE_ETA):
        a = ldexp(1.0, 2 * (frexp(top)[1] - 1))
        z = z / a
    gmat, s = mt_generator(z)
    lam, vecs, info = _lapack.zheevd(mt_lax(gmat, a), lower=1,
                                     overwrite_a=1)
    if info != 0:
        raise EigensolveFailed(f"eigensolve of L failed: zheevd info {info}")
    # zheevd returns lambda in ascending order; argmin and argmax pick a NaN
    if not lam[-1] < 0:
        raise PositivityFailure("Lax operator produced a nonnegative eigenvalue")
    if lam.size > 1:
        gaps = lam[1:] - lam[:-1]
        gap = gaps[gaps.argmin()]
        if not gap > GAP_TOL * abs(lam[0]):
            raise DegenerateSpectrum(
                f"eigenvalue gap {gap / a:.3e} below tolerance")

    p = s @ vecs  # (U* s)^*, s real
    pmag = np.abs(p)
    # <u, phi_j> = 2 sqrt(pi) |lambda_j| p_j, relative to sqrt(2 pi |lambda_j|)
    pairing = pmag * np.sqrt(-2 * lam)
    defects = np.abs(pairing * pairing - 1)
    wu = defects[defects.argmax()]
    if not wu <= WU_TOL:
        j = pairing.argmin()
        if not pairing[j] >= 1e-10:
            raise PositivityFailure(
                f"<u, phi_{j + 1}> vanished; forbidden for eigenfunctions")
        raise InvariantViolation(f"Wu defect {wu:.3e} exceeds {WU_TOL:g}")
    vecs *= p.conj() / pmag

    # U* (G U), the triangular product reading only the upper part of G
    mmat = _lapack.zgemm(1.0, vecs, _lapack.ztrmm(1.0, gmat, vecs),
                         trans_a=2)
    defect = mmat - mmat.conj().T
    defect += (2j * pmag)[:, None] * pmag
    im_defect = sqrt(np.vdot(defect, defect).real) / 2
    if not im_defect <= IM_M_TOL:
        raise InvariantViolation(
            f"Im M misses -p p^T by {im_defect:.3e} (Frobenius norm)")

    if a != 1.0:
        lam /= a
        mmat *= a
    return SpectralData(lam, mmat.diagonal().real.copy(), mmat, params.zs,
                        vecs)


def m_formula(lambdas, gammas):
    """Closed form of M from eigenvalues and angles.

    Off-diagonal i/(lambda_k - lambda_j) * sqrt(|lambda_k|/|lambda_j|),
    diagonal gamma_j - i/(2 |lambda_j|).  Built in real arithmetic with the
    roundings of the complex expressions 1j / gap * sqrt(ratio) and
    gamma - 1j / (2 |lambda|): imaginary parts (1/gap) * sqrt(ratio) and
    -0.5/|lambda_j|, real parts +0 off the diagonal.  Fortran order, which
    zgeev reads without a copy.

    The inputs are finite, as ActionAngles and SpectralData hold them, so
    an entry is non-finite only through an overflow or a division by zero
    (an eigenvalue within about 1e-308 of 0, a ratio |lambda_k/lambda_j|
    past the float range); either raises NonFiniteInput, and no LAPACK
    routine of :mod:`action_angle` sees a non-finite M.
    """
    lam = np.asarray(lambdas, dtype=float)
    gam = np.asarray(gammas, dtype=float)
    n = lam.size
    mag = np.abs(lam)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            ratio = mag[:, None] / mag
            imag = lam[:, None] - lam
            imag.flat[::n + 1] = 1.0  # the diagonal is overwritten below
            np.divide(1.0, imag, out=imag)
            imag *= np.sqrt(ratio, out=ratio)
            imag.flat[::n + 1] = -0.5 / mag
    except FloatingPointError:
        raise NonFiniteInput("M has a non-finite entry: the actions lie too "
                             "close to 0, or too far apart, for doubles"
                             ) from None
    m = np.zeros((n, n), dtype=complex, order="F")
    m.imag = imag
    m.real.flat[::n + 1] = gam
    return m


def verify_m_matrix(sd):
    """Max entrywise deviation between computed M and its closed form."""
    return float(np.abs(sd.m_matrix - m_formula(sd.lambdas, sd.gammas)).max())
