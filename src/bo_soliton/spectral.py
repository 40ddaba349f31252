"""Spectral analysis of the Lax operator on the pure-point subspace.

For an N-soliton profile u, the operator L_u = D - T_u restricted to the
N-dimensional invariant subspace span{x^k / Q_u} has N simple negative
eigenvalues.  This module builds that restriction with residue inner
products, extracts normalized eigenfunctions, the angle variables
gamma_j = Re<G phi_j, phi_j> of the frequency-shift generator G, and the full
matrix M of G in the eigenbasis.
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


def _eig_float(tmat, kern):
    """Eigenpairs of the Lax matrix with inverse-iteration polish.

    The Rayleigh quotient is taken in the L2 metric (kern), where the
    operator is self-adjoint, so eigenvalue errors are quadratic in the
    eigenvector error.
    """
    n = tmat.shape[0]
    lam_c, w = scipy.linalg.eig(tmat)
    order = np.argsort(lam_c.real)
    lam = lam_c.real[order].copy()
    w = w[:, order].astype(complex)
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


def _eig_mp(zs):
    """Extended-precision eigenpairs and raw generator matrix.

    Used for near-degenerate configurations; returns the eigenvalues, the
    L2-normalized eigenvector columns (phases not yet fixed), and the matrix
    <G phi_j, phi_k> for those representatives, all rounded to doubles.
    """
    n = len(zs)
    with mpmath.workdps(MP_DPS):
        z = [mpmath.mpc(v) for v in zs]
        kern = cauchy_entries(z, mpmath.pi)
        lam_all, wmat = mpmath.eig(mpmath.matrix(lax_entries(z)))
        order = sorted(range(n), key=lambda j: mpmath.re(lam_all[j]))
        lam = np.array([float(mpmath.re(lam_all[j])) for j in order])
        cols = []
        for j in order:
            col = [wmat[r, j] for r in range(n)]
            root = mpmath.sqrt(mpmath.re(mp_pairing(col, col, kern)))
            cols.append([c / root for c in col])
        mmat = np.empty((n, n), dtype=complex)
        for j in range(n):
            gcol = [z[r] * cols[j][r] for r in range(n)]
            for k in range(n):
                mmat[k, j] = complex(mp_pairing(gcol, cols[k], kern))
        wout = np.column_stack([np.array([complex(c) for c in col])
                                for col in cols])
    return lam, wout, mmat


def _orth_defect(w, kern):
    gram = w.T @ kern @ w.conj()
    return float(np.abs(gram - np.eye(w.shape[1])).max())


def spectral_decompose(params):
    """Eigen-decomposition of L_u restricted to the pure-point subspace.

    The restriction is assembled in the partial-fraction basis (its matrix
    has a closed form and the Gram is a Cauchy kernel), solved densely, and
    polished.  Configurations whose Gram is too ill-conditioned for double
    precision fall back to an extended-precision solve.  Eigenfunctions are
    normalized with the phase fixed so that <u, phi_j> is real positive
    (= sqrt(2 pi |lambda_j|)); the angles and the generator matrix come from
    M_{kj} = <G phi_j, phi_k>, with G acting diagonally on the basis.
    """
    n = params.n
    zs = np.array(params.zs)
    kern, cond, fast = cauchy_gram(params.zs)
    if cond > COND_LIMIT:
        raise GramIllConditioned(f"Gram condition {cond:.3e} exceeds 1e12")

    lam = wmat = mmat_raw = None
    if fast:
        lam, wmat = _eig_float(lax_matrix(params), kern)
        norms = np.sqrt(np.abs(np.einsum("rj,rs,sj->j", wmat, kern,
                                         wmat.conj()).real))
        wmat = wmat / norms[None, :]
        amp = float(np.abs(wmat).max())
        noise_floor = 100 * n * n * 1e-16 * max(1.0, amp * amp)
        if _orth_defect(wmat, kern) > max(1e-10, noise_floor):
            lam = wmat = None
        else:
            # <G phi_j, phi_k> at [k, j]; G is diagonal on this basis
            mmat_raw = ((zs[:, None] * wmat).T @ kern @ wmat.conj()).T
    if lam is None:
        lam, wmat, mmat_raw = _eig_mp(params.zs)

    if np.any(lam >= 0):
        raise PositivityFailure("Lax operator produced a nonnegative eigenvalue")
    if n > 1 and np.diff(lam).min() <= GAP_TOL * abs(lam[0]):
        raise DegenerateSpectrum(
            f"eigenvalue gap {np.diff(lam).min():.3e} below tolerance")

    u_rat = u_rational(params)
    phis = []
    rots = np.empty(n, dtype=complex)
    for j in range(n):
        v = wmat[:, j]
        phi = PoleResidueForm(tuple((z, 1, v[r]) for r, z in enumerate(zs)))
        pairing = inner_product(u_rat, phi)
        target = np.sqrt(2 * np.pi * abs(lam[j]))
        if abs(pairing) < 1e-10 * target:
            raise PositivityFailure(
                f"<u, phi_{j + 1}> vanished; forbidden for eigenfunctions")
        rots[j] = np.exp(1j * np.angle(pairing))
        phis.append(scale(phi, rots[j]))

    # phase rotation acts on M as a unitary diagonal congruence
    mmat = rots.conj()[:, None] * mmat_raw * rots[None, :]
    gammas = mmat.diagonal().real.copy()

    im_m = (mmat - mmat.conj().T) / 2j
    top = float(np.linalg.eigvalsh(im_m).max())
    if top > IM_M_TOL:
        raise InvariantViolation(f"Im M has positive eigenvalue {top:.3e}")

    return SpectralData(lam, gammas, tuple(phis), mmat, cond)


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
