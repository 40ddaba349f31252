"""Conserved quantities and verification of the symplectic structure.

The symplectic pairing of two tangent fields h1, h2 to the soliton manifold
is (i/2pi) * integral of h1hat(xi) * conj(h2hat(xi)) / xi.  For the
coordinate tangent vectors f_j = du/deta_j and g_j = du/dx_j the Fourier
transforms are explicit on xi > 0, which collapses the pairing to closed
forms in w = (eta_j + eta_k) + i(x_j - x_k), that is in the Cauchy kernel
K_jk = 1/(conj z_k - z_j) = -i/w_jk of ``profiles.cauchy_kernel``, where
1/w**2 = -K**2:

    omega(f_j, f_k) = -4 pi Im(1/w**2) = 4 pi Im(K_jk**2)
    omega(f_j, g_k) = +4 pi Re(1/w**2) = -4 pi Re(K_jk**2)
    omega(g_j, g_k) = -4 pi Im(1/w**2) = 4 pi Im(K_jk**2)

(The test suite re-derives these against direct numerical xi-integration.)
Where w overflows, K**2 goes to its limit 0; ``omega_matrix`` refuses an
Omega with an entry past the float range, or with a diagonal 1/(4 eta_j^2)
below the normal range, by one check on the matrix it returns.
Central differences of the coordinate map at one fixed step, each side one
``spectral_decompose`` (``fd_jacobian``), then verify the pullback identity
J^T nu J = Omega and the canonical bracket relations {I_j, gamma_k} = delta_jk.
The conserved quantities E_n and the generating function H_lambda read the
eigenvalues ``.lambdas`` of a SpectralData or of an ActionAngles alike.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryNotDecayed, NonFiniteInput, PoleProximity
from .profiles import SolitonParameters, cauchy_kernel, real_array
from .spectral import spectral_decompose

FD_STEP = 1e-5
# the largest edge value |u| that e1_quadrature accepts on a line grid
EDGE_TOL = 1e-6


def omega_matrix(params):
    """2N x 2N pairing matrix in coordinates (x_1, eta_1, ..., x_N, eta_N)."""
    with np.errstate(all="ignore"):
        # 1/w**2 = -K**2 (module docstring), which is 0 where w overflows
        inv_w2 = -np.square(cauchy_kernel(params.zs, params.zs))
        ff, fg = -4 * np.pi * inv_w2.imag, 4 * np.pi * inv_w2.real
    omega = np.empty((2 * params.n, 2 * params.n))
    omega[0::2, 0::2] = omega[1::2, 1::2] = ff  # g-g and f-f are equal
    omega[0::2, 1::2] = -fg.T  # omega(g_j, f_k)
    omega[1::2, 0::2] = fg     # omega(f_j, g_k)
    # an entry past the float range, or a subnormal 1/(2 eta_j)**2, which
    # leaves Omega singular to working precision
    if not (np.isfinite(omega).all()
            and (inv_w2.real.diagonal() >= np.finfo(float).tiny).all()):
        raise NonFiniteInput("the symplectic pairing leaves the float range")
    return omega


def fd_jacobian(params):
    """Central-difference Jacobian of (I_1..I_N, gamma_1..gamma_N) in
    theta = (x_1, eta_1, ..., x_N, eta_N), each column at the step
    FD_STEP * (1 + |theta_b|)."""
    theta = np.empty(2 * params.n)
    theta[0::2] = params.positions
    theta[1::2] = params.etas
    jac = np.empty((theta.size, theta.size))
    for b in range(theta.size):
        h = FD_STEP * (1.0 + abs(theta[b]))
        phi = []
        for step in (h, -h):  # theta[b] + (-h) is bitwise theta[b] - h
            tp = theta.copy()
            tp[b] += step
            sd = spectral_decompose(
                SolitonParameters.from_x_eta(tp[0::2], tp[1::2]))
            phi.append(np.concatenate([sd.actions, sd.gammas]))
        jac[:, b] = (phi[0] - phi[1]) / (2 * h)
    return jac


def canonical_form_matrix(n):
    """Matrix of sum dr^j ^ dalpha^j in the (r, alpha) coordinate order."""
    nu = np.zeros((2 * n, 2 * n))
    nu[:n, n:] = np.eye(n)
    nu[n:, :n] = -np.eye(n)
    return nu


def symplectomorphism_check(params):
    """Max entry of |J^T nu J - Omega|; the pullback identity in coordinates.

    J is the central-difference Jacobian of :func:`fd_jacobian`, so the
    defect carries an O(FD_STEP^2) truncation error.
    """
    jac = fd_jacobian(params)
    nu = canonical_form_matrix(params.n)
    return float(np.abs(jac.T @ nu @ jac - omega_matrix(params)).max())


def poisson_bracket_table(params):
    """Brackets of all pairs among (I_1..I_N, gamma_1..gamma_N).

    Gradients come from the same finite-difference Jacobian; the Poisson
    matrix is -Omega^{-1}, the orientation that makes {I_1, gamma_1} = +1 in
    the one-soliton closed form.  Expected pattern: [[0, I], [-I, 0]].
    """
    jac = fd_jacobian(params)
    pmat = -np.linalg.inv(omega_matrix(params))
    return jac @ pmat @ jac.T


def e_n_from_spectrum(sd, n):
    """E_n = sum over j of 2 pi |lambda_j| lambda_j^n; ``sd`` is any record
    with ``.lambdas`` (a SpectralData or an ActionAngles); NonFiniteInput
    past the float range."""
    lam = np.asarray(sd.lambdas, dtype=float)
    with np.errstate(all="ignore"):
        e_n = float(np.sum(2 * np.pi * np.abs(lam) * lam ** n))
    if not np.isfinite(e_n):
        raise NonFiniteInput(f"E_{n} is not finite in doubles")
    return e_n


def e1_quadrature(field, periodic=False):
    """E = (1/2) <|D| u, u> - (1/3) integral of u^3 on a uniform grid.

    The first term uses the discrete |k| multiplier on the periodic embedding
    of the grid; the cubic term is a trapezoid sum.  Line profiles must decay
    at the edges unless the field is declared periodic.
    """
    u = field.values
    if not periodic:
        edge = max(abs(u[0]), abs(u[-1]))
        if edge > EDGE_TOL:  # the message spells EDGE_TOL as 1e-6
            raise BoundaryNotDecayed(
                f"edge magnitude {edge:.3e} exceeds 1e-6")
    n = u.size
    dx = field.dx
    k = 2 * np.pi * np.fft.rfftfreq(n, d=dx)
    power = k * np.abs(np.fft.rfft(u)) ** 2
    # u is real, so |uhat(-k)| = |uhat(k)|: each k > 0 stands for two modes,
    # except DC and, for even n, the Nyquist mode, which appear once
    full_sum = 2 * power.sum() - power[0] - (power[-1] if n % 2 == 0 else 0.0)
    # (1/4pi) * sum |k| |dx*uhat|^2 * dk with dk = 2pi/(n dx)
    quad_term = (dx / (2 * n)) * float(full_sum)
    cubic = float(np.sum(u ** 3) * dx)
    if not periodic:
        cubic -= 0.5 * dx * float(u[0] ** 3 + u[-1] ** 3)
    return quad_term - cubic / 3.0


def h_lambda(sd, lam):
    """Generating function H_lambda = -sum 2 pi lambda_j / (lambda + lambda_j);
    ``sd`` is any record with ``.lambdas``, like :func:`e_n_from_spectrum`.
    Infinite lambda gives the limit 0; NaN or an overflow NonFiniteInput,
    and a complex lambda DomainError."""
    lam = real_array(lam, "lambda")
    lj = np.asarray(sd.lambdas, dtype=float)
    with np.errstate(all="ignore"):
        den = lam + lj
        h = float(-np.sum(2 * np.pi * lj / den))
    if np.any(np.abs(den) <= 1e-8):
        raise PoleProximity(f"lambda = {lam} too close to a pole of H")
    # a finite lambda whose lambda + lambda_j overflows would read 0
    if not np.isfinite(h) or np.isfinite(lam) and not np.isfinite(den).all():
        raise NonFiniteInput(f"H_lambda at {lam} is not finite in doubles")
    return h
