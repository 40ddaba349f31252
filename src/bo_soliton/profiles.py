"""Soliton parameter bookkeeping and profile synthesis.

Translation-scaling parameters z_j = x_j - i*eta_j (position x_j, inverse
amplitude eta_j = 1/c_j) determine the profile

    u(x) = sum_j 2*eta_j / ((x - x_j)**2 + eta_j**2),

its monic characteristic polynomial Q with roots {z_j}, the Hardy
representative Pi u = i Q'/Q, the inner-function combination 1 - Qbar/Q, and
the periodic gap potential obtained through z -> exp(i z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateParameters,
    DomainError,
    NonFiniteInput,
    RootFindingFailed,
)
from .rational import (
    DEGENERACY_TOL,
    PoleResidueForm,
    pf_decompose,
)


@dataclass(frozen=True)
class SolitonParameters:
    """Unordered multiset {z_j} in the lower half-plane, stored sorted.

    The z_j must be finite (else NonFiniteInput) and pairwise at least
    DEGENERACY_TOL * max(1, max|z_j|) apart (else DegenerateParameters).
    """

    zs: tuple = field(default=())

    def __post_init__(self):
        z = np.array(self.zs, dtype=complex)
        if z.ndim != 1 or z.size < 1:
            raise DomainError("at least one soliton is required")
        if not np.isfinite(z).all():
            raise NonFiniteInput(f"parameters must be finite: {z}")
        if not z.imag.max() < 0:
            raise DomainError(f"parameter {z[np.argmax(z.imag)]} must lie in "
                              "the lower half-plane (eta > 0)")
        # every pair: neighbours in sort order can miss a collision
        dist = np.abs(z[:, None] - z)
        dist.flat[::z.size + 1] = np.inf
        close = dist.argmin()
        if not dist.flat[close] >= DEGENERACY_TOL * max(1.0, np.abs(z).max()):
            j, k = divmod(close, z.size)
            raise DegenerateParameters(
                f"parameters {z[j]} and {z[k]} collide within tolerance")
        # complex sort: by real part, then imaginary part
        object.__setattr__(self, "zs", tuple(np.sort(z).tolist()))

    @property
    def n(self):
        return len(self.zs)

    @property
    def positions(self):
        return np.array([z.real for z in self.zs])

    @property
    def etas(self):
        return np.array([-z.imag for z in self.zs])

    @classmethod
    def from_x_eta(cls, xs, etas):
        return cls(tuple(complex(x, -e) for x, e in zip(xs, etas)))

    def shifted(self, dx):
        return SolitonParameters(tuple(z + dx for z in self.zs))

    def scaled(self, c):
        """z -> z/c, realizing u_c(x) = c*u(c*x)."""
        return SolitonParameters(tuple(z / c for z in self.zs))


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial via its low-order coefficients a_0..a_{N-1}."""

    low_coeffs: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "low_coeffs", tuple(complex(a) for a in self.low_coeffs))
        if len(self.low_coeffs) < 1:
            raise DomainError("degree must be at least 1")

    @property
    def degree(self):
        return len(self.low_coeffs)

    def coeffs_desc(self):
        """Full coefficient list, highest degree first (leading 1)."""
        return np.array([1.0 + 0j] + list(reversed(self.low_coeffs)))

    def __call__(self, x):
        return np.polyval(self.coeffs_desc(), x)


@dataclass(frozen=True)
class GridField:
    """Uniform real-valued samples: values[k] at x0 + k*dx."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("grid needs at least two samples")
        if not (self.dx > 0):
            raise DomainError("dx must be positive")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    def xs(self):
        return self.x0 + self.dx * np.arange(self.values.size)

    def same_grid(self, other):
        return (self.values.size == other.values.size
                and abs(self.x0 - other.x0) < 1e-12 * max(1.0, abs(self.x0))
                and abs(self.dx - other.dx) < 1e-12 * self.dx)


def viete_coeffs(roots):
    """Coefficients of prod(X - r); root order does not matter."""
    rs = sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))
    if not rs:
        raise DomainError("need at least one root")
    coeffs = np.array([1.0 + 0j])
    for r in rs:
        coeffs = np.convolve(coeffs, np.array([1.0, -r]))
    return MonicPolynomial(tuple(reversed(coeffs[1:])))


def poly_roots(p):
    """Roots via companion-matrix eigenvalues, with a residual gate."""
    coeffs = p.coeffs_desc()
    roots = np.roots(coeffs)
    bound = 1e-8 * (1.0 + max(abs(a) for a in coeffs))
    resid = np.abs(np.polyval(coeffs, roots))
    if np.any(resid > bound):
        raise RootFindingFailed(
            f"max residual {resid.max():.3e} exceeds bound {bound:.3e}")
    return [complex(r) for r in roots]


def char_poly(params):
    return viete_coeffs(params.zs)


def pi_u(params):
    """Hardy representative Pi u = i Q'/Q = sum_j i/(x - z_j)."""
    return PoleResidueForm(tuple((z, 1, 1j) for z in params.zs))


def u_rational(params):
    """The real profile as a rational function: Pi u plus its reflection."""
    terms = [(z, 1, 1j) for z in params.zs]
    terms += [(z.conjugate(), 1, -1j) for z in params.zs]
    return PoleResidueForm(tuple(terms))


def profile_values(params, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for z in params.zs:
        out += 2 * (-z.imag) / ((x - z.real) ** 2 + z.imag ** 2)
    return out


def profile(params, x0, dx, n):
    if n < 2:
        raise DomainError("need at least two samples")
    x = x0 + dx * np.arange(n)
    return GridField(x0, dx, profile_values(params, x))


def one_minus_theta(params):
    """1 - Qbar/Q = (Q - Qbar)/Q with Qbar the coefficient conjugate of Q.

    Unimodular complement of the inner function; lies in the Hardy space with
    poles exactly at the z_j.
    """
    q = char_poly(params)
    num_desc = [a - a.conjugate() for a in reversed(q.low_coeffs)]
    return pf_decompose(num_desc, params.zs)


def torus_potential(params, m):
    """Gap potential on [0, 2*pi): v = 2*Re h, h = -w Qt'(w)/Qt(w), w = e^{iy}.

    The parameter map z -> exp(i z) sends the lower half-plane onto the
    annulus |w| > 1; Qt is monic with roots at the mapped parameters.  So h
    is holomorphic on the closed unit disc with h(0) = 0, and v has mean
    zero.  v + N = sum_j sinh(eta_j)/(cosh(eta_j) - cos(y - x_j)) is the
    2*pi-periodization of the line profile u; the same form built from the
    reflected roots exp(i conj z_j), 2*Re[w Qt'(w)/Qt(w)], equals v + 2N.
    """
    if m < 2:
        raise DomainError("need at least two samples")
    ws = [np.exp(1j * z) for z in params.zs]
    y = 2 * np.pi * np.arange(m) / m
    eiy = np.exp(1j * y)
    h = np.zeros(m, dtype=complex)
    for w in ws:
        h -= eiy / (eiy - w)
    return GridField(0.0, 2 * np.pi / m, 2 * h.real)
