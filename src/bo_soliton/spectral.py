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
partial-fraction basis 1/(x - z_r) carries the eigenfunctions' pole-residue
form and the oracles the closed forms are tested against: ``lax_entries``
and ``cauchy_entries`` in that basis, and the pole-residue operators
``lax_apply`` and ``g_apply``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import mpmath
import numpy as np
from scipy.linalg.blas import zgemm, ztrmm
from scipy.linalg.lapack import zheevd, ztrsyl

from .errors import (
    DegenerateSpectrum,
    EigensolveFailed,
    InvariantViolation,
    PositivityFailure,
)
from .profiles import one_minus_theta, u_rational
from .rational import (
    MP_DPS,
    PoleResidueForm,
    add,
    derivative,
    inner_product,
    multiply,
    multiply_by_x,
    pf_decompose,
    scale,
    szego_project,
)

ORDER_RESIDUAL_TOL = 1e-8
GAP_TOL = 1e-10
IM_M_TOL = 1e-9
# max|2 |lambda_j| p_j^2 - 1|, p = U* s: the Wu identity <u, phi_j>^2 =
# 2 pi |lambda_j| in the MT basis, at criterion 3's tolerance
WU_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues, angles and the generator matrix M of L_u.

    ``zs`` are the poles and ``vectors`` the phase-fixed eigenvectors in the
    Malmquist-Takenaka basis (columns); the eigenfunctions are built from
    them on first use.
    """

    lambdas: np.ndarray
    gammas: np.ndarray
    m_matrix: np.ndarray
    zs: tuple
    vectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        gam = np.asarray(self.gammas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "gammas", gam)
        object.__setattr__(self, "m_matrix",
                           np.asarray(self.m_matrix, dtype=complex))
        if not lam[-1] < 0:
            raise PositivityFailure("eigenvalues must be strictly negative")
        if not (lam[:-1] < lam[1:]).all():
            raise DegenerateSpectrum("eigenvalues must be strictly increasing")

    @property
    def n(self):
        return self.lambdas.size

    @property
    def actions(self):
        return 2 * np.pi * self.lambdas

    @cached_property
    def eigen_coeffs(self):
        """Coefficients of phi_j in the basis 1/(x - z_r), to MP_DPS digits.

        Entry j lists the mpmath coefficients of phi_j: column j of
        W = R U, with R = :func:`mt_residues`.  Clustered poles make these
        coefficients large and cancelling, so pairings that must stay
        accurate use them with :func:`mp_pairing`.
        """
        with mpmath.workdps(MP_DPS):
            rmat = mt_residues([mpmath.mpc(v) for v in self.zs])
            w = mpmath.matrix(rmat) * mpmath.matrix(self.vectors.tolist())
            return tuple([w[r, j] for r in range(self.n)]
                         for j in range(self.n))

    @cached_property
    def eigenfunctions(self):
        """phi_j in pole-residue form, coefficients rounded to doubles."""
        return tuple(PoleResidueForm(tuple((z, 1, complex(c))
                                           for z, c in zip(self.zs, col)))
                     for col in self.eigen_coeffs)


def hpp_basis(params):
    """Basis e_k = x^k / Q_u, k = 0..N-1, expanded in partial fractions."""
    basis = []
    for k in range(params.n):
        num = [1.0] + [0.0] * k  # x^k, highest degree first
        basis.append(pf_decompose(num, params.zs))
    return basis


def _strip_high_orders(f, what):
    """Drop order >= 2 terms whose mass is below tolerance, else raise."""
    scale_ = max(f.coeff_scale(), 1.0)
    bad = [t for t in f.terms if t[1] >= 2]
    if bad:
        worst = max(abs(c) for _, _, c in bad)
        if worst > ORDER_RESIDUAL_TOL * scale_:
            raise InvariantViolation(
                f"{what}: residual pole mass {worst:.3e} at order >= 2")
    return PoleResidueForm(tuple(t for t in f.terms if t[1] == 1), f.constant)


def lax_apply(params, f):
    """L_u f = -i f' - P(u f), with P the Szego projection.

    The order-2 intermediates at the z_j must cancel; the post-check enforces
    that and returns a clean simple-pole element of the invariant subspace.
    """
    df = scale(derivative(f), -1j)
    tuf = szego_project(multiply(u_rational(params), f))
    out = add(df, scale(tuf, -1.0))
    return _strip_high_orders(out, "lax_apply")


def g_apply(params, f):
    """G f = x f - (i/2pi) <f, 1 - Theta>, the generator i d/dxi on Fourier side.

    The subtracted constant equals the sum of the simple-pole coefficients of
    f, so the constant part of the result cancels; the residual is checked.
    """
    omt = one_minus_theta(params)
    xf = multiply_by_x(f)
    boundary = inner_product(f, omt)  # = hat f at 0+
    resid = xf.constant - (1j / (2 * np.pi)) * boundary
    if abs(resid) > ORDER_RESIDUAL_TOL * max(1.0, f.coeff_scale()):
        raise InvariantViolation(
            f"g_apply: residual constant {abs(resid):.3e} did not cancel")
    return PoleResidueForm(xf.terms, 0j)


def lax_entries(z, shift=0):
    """Entries of L_u + shift in the partial-fraction basis c_r = 1/(x - z_r).

    Closed form: off-diagonal -i/(z_r - z_s); the diagonal collects the
    remaining projected interaction terms.  Plain scalar arithmetic on nested
    lists, so the same code serves complex doubles and mpmath numbers.
    """
    n = len(z)
    zb = [v.conjugate() for v in z]
    t = [[None] * n for _ in range(n)]
    for s in range(n):
        acc = shift
        for r in range(n):
            if r != s:
                t[r][s] = -1j / (z[r] - z[s])
                acc -= t[r][s]
        for r in range(n):
            acc -= 1j / (zb[r] - z[s])
        t[s][s] = acc
    return t


def lax_matrix(params):
    """L_u in the basis c_r, in doubles; agrees with :func:`lax_apply`."""
    return np.array(lax_entries(params.zs))


def cauchy_entries(z, pi):
    """K with <f, g> = f @ K @ conj(g) for coefficients in the c_r basis.

    K_rs = 2 pi i / (conj(z_s) - z_r); nested lists of plain scalars like
    :func:`lax_entries`, with ``pi`` at the working precision.
    """
    return [[2j * pi / (b.conjugate() - a) for b in z] for a in z]


def cauchy_gram(zs):
    """Cauchy kernel of the poles ``zs`` and its Gram condition."""
    kern = np.array(cauchy_entries(zs, np.pi))
    return kern, float(np.linalg.cond(0.5 * (kern.T + kern.conj())))


def mp_pairing(f, g, kern):
    """<f, g> = sum_rs f_r K_rs conj(g_s), summed exactly (mpmath.fsum)."""
    n = len(kern)
    return mpmath.fsum(f[r] * mpmath.conj(g[s]) * kern[r][s]
                       for r in range(n) for s in range(n))


def mt_generator(zs):
    """G = diag(z) - 2i triu(s s^T, 1) in the Malmquist-Takenaka basis, and s.

    s_k = sqrt(eta_k), so (G - G*)/2i = -s s^T and Im M = -p p* <= 0 in any
    orthonormal eigenbasis, p = U* s.
    """
    z = np.asarray(zs, dtype=complex)
    s = np.sqrt(-z.imag)
    k = np.arange(z.size)
    gmat = np.outer(s, -2j * s) * (k[:, None] < k)
    gmat.flat[::z.size + 1] = z
    return gmat, s


def mt_lax(gmat):
    """L_u in the Malmquist-Takenaka basis: the solution of G L - L G* = iI.

    G is upper triangular, so this is one LAPACK ztrsyl call.  The spectra
    of G (lower half-plane) and G* (upper) are disjoint, so the solution is
    unique and Hermitian.
    """
    lmat, scale_, info = ztrsyl(gmat, gmat, 1j * np.eye(len(gmat)),
                                trana="N", tranb="C", isgn=-1)
    if info != 0:
        raise InvariantViolation(f"Sylvester solve failed: ztrsyl info {info}")
    return lmat / scale_


def mt_residues(z):
    """R with b_k = sum_q R_qk / (x - z_q): the Malmquist-Takenaka basis in
    the partial-fraction basis.

    R_qk = i sqrt(eta_k/pi) prod_{m<k} (z_q - conj z_m)
    / prod_{m<=k, m!=q} (z_q - z_m) for q <= k, else 0.  ``z`` holds mpmath
    numbers; call inside ``mpmath.workdps``.  Nested lists, like
    :func:`lax_entries`.
    """
    n = len(z)
    r = [[mpmath.mpc(0)] * n for _ in range(n)]
    for k in range(n):
        lead = 1j * mpmath.sqrt(-z[k].imag / mpmath.pi)
        for q in range(k + 1):
            num = mpmath.fprod(z[q] - z[m].conjugate() for m in range(k))
            den = mpmath.fprod(z[q] - z[m] for m in range(k + 1) if m != q)
            r[q][k] = lead * num / den
    return r


def spectral_decompose(params):
    """Eigen-decomposition of L_u restricted to the pure-point subspace.

    In the orthonormal Malmquist-Takenaka basis (module docstring) the
    generator G has a closed form and L = L_u solves G L - L G* = iI; one
    triangular Sylvester solve (LAPACK ztrsyl) and one Hermitian eigensolve
    (zheevd) give lambda and U.  Each eigenvector's phase is fixed so that
    p = U* s is real positive, which is <u, phi_j> > 0 because
    Pi u = -2 sqrt(pi) L s in this basis.  Then M = U* G U,
    M_kj = <G phi_j, phi_k>, and gamma_j = Re M_jj.

    Gates, each tripped by NaN as well: strictly negative, separated
    eigenvalues (GAP_TOL), nonvanishing <u, phi_j>, the Wu identity
    2 |lambda_j| p_j^2 = 1 within WU_TOL, and Im M = -p p^T within IM_M_TOL.
    The last holds exactly, since Im M = (M - M*)/2i = U* ((G - G*)/2i) U
    = -(U* s)(U* s)^T; its gate is ||Im M + p p^T||_F <= IM_M_TOL, and by
    Weyl's inequality that bounds the top eigenvalue of the computed Im M
    by the same IM_M_TOL, without an eigensolve.  A nonzero LAPACK info
    raises a NumericalError.  ``params`` must hold finite, pairwise
    distinct parameters in the lower half-plane, which
    :class:`SolitonParameters` enforces.
    """
    gmat, s = mt_generator(params.zs)
    lam, vecs, info = zheevd(mt_lax(gmat), lower=1, overwrite_a=1)
    if info != 0:
        raise EigensolveFailed(f"eigensolve of L failed: zheevd info {info}")
    # zheevd returns lambda in ascending order
    if not lam[-1] < 0:
        raise PositivityFailure("Lax operator produced a nonnegative eigenvalue")
    gaps = lam[1:] - lam[:-1]
    if gaps.size and not gaps.min() > GAP_TOL * abs(lam[0]):
        raise DegenerateSpectrum(
            f"eigenvalue gap {gaps.min():.3e} below tolerance")

    p = (s @ vecs).conj()  # U* s, s real
    pmag = np.abs(p)
    # <u, phi_j> = 2 sqrt(pi) |lambda_j| p_j, relative to sqrt(2 pi |lambda_j|)
    pairing = pmag * np.sqrt(-2 * lam)
    if not pairing.min() >= 1e-10:
        raise PositivityFailure(
            f"<u, phi_{int(np.argmin(pairing)) + 1}> vanished; forbidden for "
            "eigenfunctions")
    vecs = vecs * (p / pmag)
    wu = np.abs(pairing * pairing - 1).max()
    if not wu <= WU_TOL:
        raise InvariantViolation(f"Wu defect {wu:.3e} exceeds {WU_TOL:g}")

    # U* (G U), the triangular product reading only the upper part of G
    mmat = zgemm(1.0, vecs, ztrmm(1.0, gmat, vecs), trans_a=2)
    defect = (mmat - mmat.conj().T) / 2j + np.outer(pmag, pmag)
    im_defect = np.sqrt(np.vdot(defect, defect).real)
    if not im_defect <= IM_M_TOL:
        raise InvariantViolation(
            f"Im M misses -p p^T by {im_defect:.3e} (Frobenius norm)")

    return SpectralData(lam, mmat.diagonal().real.copy(), mmat, params.zs,
                        vecs)


def m_formula(lambdas, gammas):
    """Closed form of M from eigenvalues and angles.

    Off-diagonal i/(lambda_k - lambda_j) * sqrt(|lambda_k|/|lambda_j|),
    diagonal gamma_j - i/(2 |lambda_j|).
    """
    lam = np.asarray(lambdas, dtype=float)
    gam = np.asarray(gammas, dtype=float)
    mag = np.abs(lam)
    gaps = lam[:, None] - lam
    gaps.flat[::lam.size + 1] = 1.0  # the diagonal is overwritten below
    m = 1j / gaps * np.sqrt(mag[:, None] / mag)
    m.flat[::lam.size + 1] = gam - 1j / (2 * mag)
    return m


def verify_m_matrix(sd):
    """Max entrywise deviation between computed M and its closed form."""
    return float(np.abs(sd.m_matrix - m_formula(sd.lambdas, sd.gammas)).max())
