"""Independent reference routes in the partial-fraction basis 1/(x - z_r),
which spans the invariant subspace span{x^k / Q_u} for distinct z_r.

This module is the oracle the production path is checked against, not part
of that path: ``spectral``, ``action_angle``, ``profiles``, ``invariants``,
``pde`` and ``tableio`` import neither it, :mod:`bo_soliton.rational` nor
mpmath.  It holds every route that needs the pole-residue calculus or
extended precision: ``pi_u`` and ``u_rational``; the eigenfunctions
``eigen_coeffs(sd)`` and ``eigenfunctions(sd)``, with ``mt_residues``; the
Lax matrix ``lax_entries`` (plain scalars, so doubles or mpmath) and the
condition number of its Cauchy Gram, ``cauchy_gram``; the operators
``lax_apply`` and ``g_apply``; and the independent checks behind
``validate``, ``h_lambda_resolvent`` and ``wu_defect``, which pair over
:func:`bo_soliton.profiles.cauchy_kernel` in MP_DPS digits.  That kernel,
K_rs = 1/(conj z_s - z_r) on the poles, also gives the Lax diagonal and
the Gram matrix 2 pi i K.
"""
from __future__ import annotations

import mpmath
import numpy as np

from .errors import InvariantViolation, NonFiniteInput, SingularResolvent
from .profiles import cauchy_kernel
from .rational import (
    MP_DPS,
    PoleResidueForm,
    add,
    conj_reflect,
    derivative,
    inner_product,
    mp_pairing,
    multiply,
    multiply_by_x,
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


def lax_apply(params, f):
    """L_u f = -i f' - P(u f), with P the Szego projection.

    The order-2 intermediates at the z_j must cancel: order >= 2 terms with
    mass below tolerance are dropped, larger ones raise, so the result is a
    clean simple-pole element of the invariant subspace.
    """
    df = scale(derivative(f), -1j)
    tuf = szego_project(multiply(u_rational(params), f))
    out = add(df, scale(tuf, -1.0))
    worst = max((abs(c) for _, m, c in out.terms if m >= 2), default=0.0)
    if worst > ORDER_RESIDUAL_TOL * max(out.coeff_scale(), 1.0):
        raise InvariantViolation(
            f"lax_apply: residual pole mass {worst:.3e} at order >= 2")
    return PoleResidueForm(tuple(t for t in out.terms if t[1] == 1),
                           out.constant)


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

    Closed form: off-diagonal t_rs = -i/(z_r - z_s); the diagonal collects
    the remaining projected interaction terms, shift - sum_{r != s} t_rs
    - i sum_r K_sr, with K the :func:`cauchy_kernel` of the poles.  Plain
    scalar arithmetic on nested lists, so the same code serves complex
    doubles and mpmath numbers.
    """
    n = len(z)
    kern = cauchy_kernel(z, z)
    t = [[None] * n for _ in range(n)]
    for s in range(n):
        acc = shift
        for r in range(n):
            if r != s:
                t[r][s] = -1j / (z[r] - z[s])
                acc -= t[r][s]
        for k_sr in kern[s]:
            acc -= 1j * k_sr
        t[s][s] = acc
    return t


def cauchy_gram(zs):
    """Condition number of the Gram matrix of the basis 1/(x - z_r), which is
    2 pi i times the :func:`cauchy_kernel` of the poles ``zs``."""
    kern = 2j * np.pi * np.array(cauchy_kernel(zs, zs))
    return float(np.linalg.cond(0.5 * (kern.T + kern.conj())))


def mt_residues(z):
    """R with b_k = sum_q R_qk / (x - z_q): the Malmquist-Takenaka basis of
    :mod:`bo_soliton.spectral` in the partial-fraction basis.

    R_qk = i sqrt(eta_k/pi) prod_{m<k} (z_q - conj z_m)
    / prod_{m<=k, m!=q} (z_q - z_m) for q <= k, else 0; each row q keeps
    both products running over k, O(N^2) multiplications in all.  ``z``
    holds mpmath numbers; call inside ``mpmath.workdps``.  Nested lists,
    like :func:`lax_entries`.
    """
    n = len(z)
    r = [[mpmath.mpc(0)] * n for _ in range(n)]
    leads = [1j * mpmath.sqrt(-zk.imag / mpmath.pi) for zk in z]
    for q in range(n):
        num = den = mpmath.mpf(1)
        for k in range(n):
            if k != q:
                den *= z[q] - z[k]
            if k >= q:
                r[q][k] = leads[k] * num / den
            num *= z[q] - z[k].conjugate()
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
    ill-conditioned for clustered poles; the pairing is O(N) (``wu_defect``).
    """
    if not np.isfinite(lam):
        raise NonFiniteInput(f"resolvent shift lambda = {lam} is not finite")
    with mpmath.workdps(MP_DPS):
        z = [mpmath.mpc(v) for v in params.zs]
        try:
            sol = mpmath.lu_solve(mpmath.matrix(lax_entries(z, lam)),
                                  mpmath.matrix([1j] * params.n))
        except ZeroDivisionError:  # mpmath's singular matrix
            raise SingularResolvent(f"L_u + {lam} is singular") from None
        k = [mpmath.fsum(row) for row in cauchy_kernel(z, z)]
        return float(mpmath.re(2 * mpmath.pi * mpmath.fdot(sol, k)))


def wu_defect(params, sd):
    """Max relative defect of |<u, phi_j>|^2 = 2 pi |lambda_j| <phi_j, phi_j>.

    Pairs the MP_DPS-digit eigenfunction coefficients by residues in the
    Cauchy kernel K.  Pi u has every coefficient i in the basis 1/(x - z_r),
    so |<u, phi_j>| = |<phi_j, Pi u>| = |2 pi i sum_rs phi_jr K_rs conj(i)|
    = 2 pi |phi_j . k| in O(N), k the row sums of K.
    """
    worst = 0.0
    with mpmath.workdps(MP_DPS):
        z = [mpmath.mpc(v) for v in params.zs]
        kern = cauchy_kernel(z, z)
        k = [mpmath.fsum(row) for row in kern]
        for lam, col in zip(sd.lambdas, eigen_coeffs(sd)):
            pairing = 2 * mpmath.pi * mpmath.fdot(col, k)
            norm2 = mpmath.re(2j * mpmath.pi * mp_pairing(col, col, kern))
            scale_ = 2 * mpmath.pi * abs(lam) * norm2
            worst = max(worst, float(abs(abs(pairing) ** 2 - scale_) / scale_))
    return worst
