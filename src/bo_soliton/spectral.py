"""Spectral analysis of the Lax operator on the pure-point subspace.

For an N-soliton profile u, the operator L_u = D - T_u restricted to the
N-dimensional invariant subspace span{x^k / Q_u} has N simple negative
eigenvalues.  This module builds that restriction as a closed-form matrix in
the partial-fraction basis 1/(x - z_r), whose L2 Gram is a Cauchy kernel,
and diagonalizes it in doubles; clustered configurations refine those
eigenpairs to 40 digits under a residual gate.  From the eigenvectors come
normalized eigenfunctions, the angle variables gamma_j = Re<G phi_j, phi_j>
of the frequency-shift generator G, and the full matrix M of G in the
eigenbasis.  The pole-residue operators ``lax_apply`` and ``g_apply`` are
the general-calculus oracles the closed forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg

from .errors import (
    DegenerateSpectrum,
    GramIllConditioned,
    InvariantViolation,
    PositivityFailure,
    RefinementStalled,
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
COND_LIMIT = 1e12
IM_M_TOL = 1e-9
# clustered broad solitons make the partial-fraction Gram ill-conditioned;
# beyond this gate the small dense eigenproblem runs in extended precision
FAST_COND_LIMIT = 1e6
# the extended-precision refinement stops once max|T X - X Lambda| falls below
# REFINE_TOL * max|T| max|X0|, and gives up after REFINE_SWEEPS corrections
REFINE_TOL = 1e-30
REFINE_SWEEPS = 4


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues, angles, eigenfunctions, and the generator matrix M."""

    lambdas: np.ndarray
    gammas: np.ndarray
    eigenfunctions: tuple
    m_matrix: np.ndarray
    gram_cond: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        gam = np.asarray(self.gammas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "gammas", gam)
        object.__setattr__(self, "m_matrix",
                           np.asarray(self.m_matrix, dtype=complex))
        if np.any(lam >= 0):
            raise PositivityFailure("eigenvalues must be strictly negative")
        if np.any(np.diff(lam) <= 0):
            raise DegenerateSpectrum("eigenvalues must be strictly increasing")

    @property
    def n(self):
        return self.lambdas.size

    @property
    def actions(self):
        return 2 * np.pi * self.lambdas


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
    """Cauchy kernel of the poles ``zs``, its Gram condition, and whether
    that condition lets the dense problems run in double precision."""
    kern = np.array(cauchy_entries(zs, np.pi))
    cond = float(np.linalg.cond(0.5 * (kern.T + kern.conj())))
    return kern, cond, cond <= FAST_COND_LIMIT


def mp_pairing(f, g, kern):
    """<f, g> = sum_rs f_r K_rs conj(g_s), summed exactly (mpmath.fsum)."""
    n = len(kern)
    return mpmath.fsum(f[r] * mpmath.conj(g[s]) * kern[r][s]
                       for r in range(n) for s in range(n))


def _eig_sorted(tmat):
    """Double-precision eigenpairs of the Lax matrix, by real part."""
    lam_c, w = scipy.linalg.eig(tmat)
    order = np.argsort(lam_c.real)
    return lam_c.real[order].copy(), w[:, order].astype(complex)


def _eig_float(tmat, kern):
    """Eigenpairs of the Lax matrix with inverse-iteration polish.

    The Rayleigh quotient is taken in the L2 metric (kern), where the
    operator is self-adjoint, so eigenvalue errors are quadratic in the
    eigenvector error.
    """
    n = tmat.shape[0]
    lam, w = _eig_sorted(tmat)
    eye = np.eye(n)
    for j in range(n):
        v = w[:, j]
        for _ in range(2):
            try:
                v2 = np.linalg.solve(tmat - lam[j] * eye, v)
            except np.linalg.LinAlgError:
                v2 = v
            if np.all(np.isfinite(v2)):
                v = v2 / np.linalg.norm(v2)
            num = (tmat @ v) @ kern @ v.conj()
            den = v @ kern @ v.conj()
            lam[j] = (num / den).real
        w[:, j] = v
    order = np.argsort(lam)
    return lam[order], w[:, order]


def _mp_array(a):
    """Object array of mpmath numbers at the working precision."""
    return np.array([mpmath.mpc(v) for v in np.ravel(a)],
                    dtype=object).reshape(np.shape(a))


def _mp_matmul(a, b):
    """a @ b for object arrays of mpmath numbers, one mpmath.fdot per entry
    (exact products, one rounding)."""
    cols = b.T.tolist()
    return np.array([[mpmath.fdot(row, col) for col in cols]
                     for row in a.tolist()], dtype=object)


def _eig_refined(tmat, z):
    """Eigenpairs of the Lax matrix refined from doubles to MP_DPS digits.

    Newton-type refinement of the double eigendecomposition (Dongarra,
    Moler & Wilkinson, SIAM J. Numer. Anal. 20, 1983).  Each sweep forms the
    residual R = T X - X Lambda in extended precision, the correction
    F = X0^{-1} R in doubles, and updates lambda_j += Re F_jj (the spectrum
    is real) and X += X E with E_ij = F_ij / (lambda_j - lambda_i),
    E_jj = 0.  A sweep shrinks the residual by about cond(X0) * eps.  It must
    fall below REFINE_TOL * max|T| max|X0| within REFINE_SWEEPS corrections,
    else RefinementStalled.  ``z`` holds the poles as mpmath numbers; call
    inside ``mpmath.workdps(MP_DPS)``.  Returns the eigenvalues in doubles
    and the (unnormalized) eigenvector columns as an object array.
    """
    lam0, x0 = _eig_sorted(tmat)
    y0 = np.linalg.inv(x0)
    gaps = lam0[None, :] - lam0[:, None]
    np.fill_diagonal(gaps, 1.0)  # E_jj is set to 0 below
    scale_ = np.abs(tmat).max() * np.abs(x0).max()
    t = np.array(lax_entries(z), dtype=object)
    lam = np.array([mpmath.mpf(v) for v in lam0], dtype=object)
    x = _mp_array(x0)
    for sweep in range(REFINE_SWEEPS + 1):
        resid = np.asarray(_mp_matmul(t, x) - x * lam, dtype=complex)
        rel = np.abs(resid).max() / scale_
        if rel < REFINE_TOL:
            break
        if sweep == REFINE_SWEEPS:
            raise RefinementStalled(
                f"eigen-residual {rel:.1e} after {REFINE_SWEEPS} "
                "refinement sweeps")
        f = y0 @ resid
        lam = lam + f.diagonal().real
        e = f / gaps
        np.fill_diagonal(e, 0.0)
        x = x + _mp_matmul(x, _mp_array(e))
    return np.array([float(v) for v in lam]), x


def _kw_products(z, w, kern, matmul=np.matmul):
    """Everything downstream of the eigenvectors, from one product K conj(W).

    KW = K conj(W) is formed in the precision of ``w`` and ``kern``: complex
    doubles, or mpmath numbers with ``matmul=_mp_matmul``.  From it,
    norm_j^2 = Re (W^T KW)_jj; the raw generator matrix
    M_raw = ((z o W)^T KW)^T, <G phi_j, phi_k> at [k, j], since G is
    diagonal on the basis c_r; and <u, phi_j> = <Pi u, phi_j> = i sum_r KW_rj,
    since Pi u has coefficients (i, ..., i) and conj(Pi u) pairs to 0 with
    Hardy functions.  Returns W, KW, M_raw and <u, phi_j> for the unit-norm
    columns, in complex doubles.
    """
    kw = matmul(kern, w.conj())
    mraw = matmul((z[:, None] * w).T, kw).T
    w, kw, mraw, sq, pairing = (
        np.asarray(a, dtype=complex)
        for a in (w, kw, mraw, (w * kw).sum(axis=0), 1j * kw.sum(axis=0)))
    norms = np.sqrt(np.abs(sq.real))
    return w / norms, kw / norms, mraw / np.outer(norms, norms), \
        pairing / norms


def spectral_decompose(params):
    """Eigen-decomposition of L_u restricted to the pure-point subspace.

    The restriction is assembled in the partial-fraction basis c_r =
    1/(x - z_r), where its matrix T has a closed form and the L2 Gram is the
    Cauchy kernel K, and T is diagonalized in doubles.  Well-conditioned
    configurations polish that by inverse iteration.  When the Gram
    condition exceeds FAST_COND_LIMIT, or the eigenvectors come out
    non-orthonormal, the double eigenpairs are instead refined to MP_DPS
    digits until the eigen-residual passes REFINE_TOL (else
    RefinementStalled).  The norms, the generator matrix
    M_{kj} = <G phi_j, phi_k> and the pairings <u, phi_j> all come from one
    product K conj(W) in the precision of the path.  Each eigenfunction's
    phase is fixed so that <u, phi_j> is real positive
    (= sqrt(2 pi |lambda_j|)); gamma_j = Re M_jj.
    """
    n = params.n
    zs = np.array(params.zs)
    kern, cond, fast = cauchy_gram(params.zs)
    if cond > COND_LIMIT:
        raise GramIllConditioned(f"Gram condition {cond:.3e} exceeds 1e12")

    tmat = lax_matrix(params)
    refine = not fast
    if fast:
        lam, wmat = _eig_float(tmat, kern)
        wmat, kw, mmat_raw, pairing = _kw_products(zs, wmat, kern)
        amp = float(np.abs(wmat).max())
        noise_floor = 100 * n * n * 1e-16 * max(1.0, amp * amp)
        orth_defect = float(np.abs(wmat.T @ kw - np.eye(n)).max())
        refine = orth_defect > max(1e-10, noise_floor)
    if refine:
        with mpmath.workdps(MP_DPS):
            z = _mp_array(zs)
            lam, wmat = _eig_refined(tmat, z)
            wmat, _, mmat_raw, pairing = _kw_products(
                z, wmat, np.array(cauchy_entries(z, mpmath.pi), dtype=object),
                _mp_matmul)

    if np.any(lam >= 0):
        raise PositivityFailure("Lax operator produced a nonnegative eigenvalue")
    if n > 1 and np.diff(lam).min() <= GAP_TOL * abs(lam[0]):
        raise DegenerateSpectrum(
            f"eigenvalue gap {np.diff(lam).min():.3e} below tolerance")

    target = np.sqrt(2 * np.pi * np.abs(lam))
    small = np.abs(pairing) < 1e-10 * target
    if small.any():
        raise PositivityFailure(
            f"<u, phi_{int(np.argmax(small)) + 1}> vanished; forbidden for "
            "eigenfunctions")
    rots = np.exp(1j * np.angle(pairing))
    wmat = wmat * rots
    phis = tuple(PoleResidueForm(tuple((z, 1, wmat[r, j])
                                       for r, z in enumerate(zs)))
                 for j in range(n))

    # phase rotation acts on M as a unitary diagonal congruence
    mmat = rots.conj()[:, None] * mmat_raw * rots[None, :]
    gammas = mmat.diagonal().real.copy()

    im_m = (mmat - mmat.conj().T) / 2j
    top = float(np.linalg.eigvalsh(im_m).max())
    if top > IM_M_TOL:
        raise InvariantViolation(f"Im M has positive eigenvalue {top:.3e}")

    return SpectralData(lam, gammas, phis, mmat, cond)


def m_formula(lambdas, gammas):
    """Closed form of M from eigenvalues and angles.

    Off-diagonal i/(lambda_k - lambda_j) * sqrt(|lambda_k|/|lambda_j|),
    diagonal gamma_j - i/(2 |lambda_j|).
    """
    lam = np.asarray(lambdas, dtype=float)
    gam = np.asarray(gammas, dtype=float)
    mag = np.abs(lam)
    gaps = lam[:, None] - lam[None, :]
    np.fill_diagonal(gaps, 1.0)  # the diagonal is overwritten below
    m = 1j / gaps * np.sqrt(mag[:, None] / mag[None, :])
    np.fill_diagonal(m, gam - 1j / (2 * mag))
    return m


def verify_m_matrix(sd):
    """Max entrywise deviation between computed M and its closed form."""
    return float(np.abs(sd.m_matrix - m_formula(sd.lambdas, sd.gammas)).max())
