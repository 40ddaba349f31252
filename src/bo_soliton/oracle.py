"""Independent reference routes in the partial-fraction basis 1/(x - z_r).

This module is the oracle the production path is checked against, not part
of that path: ``spectral``, ``action_angle``, ``profiles``, ``invariants``,
``pde`` and ``tableio`` import neither it, :mod:`bo_soliton.rational` nor
mpmath.  It holds every route that needs the pole-residue calculus or
extended precision: ``pi_u`` and ``u_rational``; the eigenfunctions
``eigen_coeffs(sd)`` and ``eigenfunctions(sd)``, with ``mt_residues``; the
Lax matrix and the Cauchy kernel in that basis (plain scalar arithmetic, so
the same code runs in doubles and in mpmath); the operators ``lax_apply``
and ``g_apply``; and the independent checks behind ``validate``,
``h_lambda_resolvent`` and ``wu_defect``.
"""

from __future__ import annotations

import mpmath
import numpy as np

from .errors import InvariantViolation
from .rational import (
    MP_DPS,
    PoleResidueForm,
    add,
    cauchy_kernel,
    conj_reflect,
    derivative,
    inner_product,
    mp_pairing,
    multiply,
    multiply_by_x,
    pf_decompose,
    scale,
    szego_project,
)

ORDER_RESIDUAL_TOL = 1e-8


def pi_u(params):
    """Hardy representative Pi u = i Q'/Q = sum_j i/(x - z_j)."""
    return PoleResidueForm(tuple((z, 1, 1j) for z in params.zs))


def u_rational(params):
    """The real profile as a rational function: Pi u plus its reflection."""
    return add(pi_u(params), conj_reflect(pi_u(params)))


def hpp_basis(params):
    """Basis e_k = x^k / Q_u, k = 0..N-1, expanded in partial fractions."""
    basis = []
    for k in range(params.n):
        num = [1.0] + [0.0] * k  # x^k, highest degree first
        basis.append(pf_decompose(num, params.zs))
    return basis


def one_minus_theta(params):
    """1 - Qbar/Q, with Q = prod (x - z_j) and Qbar = prod (x - conj z_j).

    Unimodular complement of the inner function; lies in the Hardy space with
    poles exactly at the z_j.  Q - Qbar has degree below N, so there is no
    constant part, and the residue at z_r is -Qbar(z_r)/Q'(z_r)
    = -prod_j (z_r - conj z_j) / prod_{j != r} (z_r - z_j).
    """
    zs = params.zs
    terms = []
    for r, zr in enumerate(zs):
        num = np.prod([zr - zj.conjugate() for zj in zs])
        den = np.prod([zr - zj for j, zj in enumerate(zs) if j != r])
        terms.append((zr, 1, -num / den))
    return PoleResidueForm(tuple(terms))


def _strip_high_orders(f, what):
    """Drop order >= 2 terms whose mass is below tolerance, else raise."""
    scale_ = max(f.coeff_scale(), 1.0)
    worst = max((abs(c) for _, m, c in f.terms if m >= 2), default=0.0)
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

    K_rs = 2 pi i / (conj(z_s) - z_r), 2 pi i times the :func:`cauchy_kernel`
    of the lower-half-plane z; nested lists of plain scalars like
    :func:`lax_entries`, with ``pi`` at the working precision.
    """
    return [[2j * pi * k for k in row] for row in cauchy_kernel(z, z)]


def cauchy_gram(zs):
    """Cauchy kernel of the poles ``zs`` and its Gram condition."""
    kern = np.array(cauchy_entries(zs, np.pi))
    return kern, float(np.linalg.cond(0.5 * (kern.T + kern.conj())))


def mt_residues(z):
    """R with b_k = sum_q R_qk / (x - z_q): the Malmquist-Takenaka basis of
    :mod:`bo_soliton.spectral` in the partial-fraction basis.

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


def eigen_coeffs(sd):
    """Coefficients of phi_j in the basis 1/(x - z_r), to MP_DPS digits.

    Entry j lists the mpmath coefficients of phi_j: column j of W = R U,
    with R = :func:`mt_residues` and U = ``sd.vectors``.  Clustered poles
    make these coefficients large and cancelling, so pairings that must stay
    accurate use them with :func:`mp_pairing`.
    """
    with mpmath.workdps(MP_DPS):
        rmat = mt_residues([mpmath.mpc(v) for v in sd.zs])
        w = mpmath.matrix(rmat) * mpmath.matrix(sd.vectors.tolist())
        return tuple([w[r, j] for r in range(sd.n)] for j in range(sd.n))


def eigenfunctions(sd):
    """phi_j in pole-residue form, coefficients rounded to doubles."""
    return tuple(PoleResidueForm(tuple((z, 1, complex(c))
                                       for z, c in zip(sd.zs, col)))
                 for col in eigen_coeffs(sd))


def h_lambda_resolvent(params, lam):
    """H_lambda via the N x N solve (L_u + lambda) f = Pi u on the subspace.

    Works in the partial-fraction basis, where Pi u has coefficient vector
    (i, ..., i) exactly; independent of the Malmquist-Takenaka eigen-route
    behind :func:`bo_soliton.invariants.h_lambda`.  The solve and the
    pairing run in MP_DPS digits, since the Gram matrix of that basis is
    ill-conditioned for clustered poles.
    """
    rhs = [1j] * params.n
    with mpmath.workdps(MP_DPS):
        z = [mpmath.mpc(v) for v in params.zs]
        sol = mpmath.lu_solve(mpmath.matrix(lax_entries(z, lam)),
                              mpmath.matrix(rhs))
        return float(mpmath.re(
            mp_pairing(sol, rhs, cauchy_entries(z, mpmath.pi))))


def wu_defect(params, sd):
    """Max relative defect of |<u, phi_j>|^2 = 2 pi |lambda_j| <phi_j, phi_j>.

    Pairs the MP_DPS-digit eigenfunction coefficients by residues in the
    Cauchy kernel; <u, phi_j> = <Pi u, phi_j>, and Pi u has coefficients
    (i, ..., i) in the basis 1/(x - z_r).
    """
    worst = 0.0
    with mpmath.workdps(MP_DPS):
        kern = cauchy_entries([mpmath.mpc(v) for v in params.zs], mpmath.pi)
        pi_coeffs = [1j] * params.n
        for lam, col in zip(sd.lambdas, eigen_coeffs(sd)):
            pairing = mp_pairing(pi_coeffs, col, kern)
            norm2 = mpmath.re(mp_pairing(col, col, kern))
            scale_ = 2 * mpmath.pi * abs(lam) * norm2
            worst = max(worst, float(abs(abs(pairing) ** 2 - scale_) / scale_))
    return worst
