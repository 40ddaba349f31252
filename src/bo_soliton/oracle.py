"""Independent reference routes in the partial-fraction basis 1/(x - z_r).

This module is the oracle the production path is checked against, not part
of that path: ``spectral_decompose``, ``inverse_map``, ``explicit_solution``
and ``pde`` never import it.  It holds the Lax matrix and the Cauchy kernel in
that basis (plain scalar arithmetic, so the same code runs in doubles and in
mpmath), the exact pairing of coefficient vectors, and the pole-residue
operators ``lax_apply`` and ``g_apply`` built on :mod:`bo_soliton.rational`.
Tests and the independent checks behind ``validate`` (``h_lambda_resolvent``
and the Wu check) use it.
"""

from __future__ import annotations

import mpmath
import numpy as np

from .errors import InvariantViolation
from .profiles import u_rational
from .rational import (
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
