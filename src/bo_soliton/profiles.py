"""Soliton parameter bookkeeping and profile synthesis.

Translation-scaling parameters z_j = x_j - i*eta_j (position x_j, inverse
amplitude eta_j = 1/c_j) determine the profile

    u(x) = sum_j 2*eta_j / ((x - x_j)**2 + eta_j**2),

its Hardy representative Pi u = i Q'/Q with Q = prod (x - z_j), and the
periodic gap potential obtained through z -> exp(i z).  The pole-residue
forms of Pi u and u (``pi_u``, ``u_rational``) live in
:mod:`bo_soliton.oracle`.  Where a sample is not finite, ``profile_values``
and ``torus_potential`` raise DomainError; an overflowed term adds 0.

``cauchy_kernel`` is the one Cauchy kernel of the package, which ``rational``,
``oracle`` and ``invariants.omega_matrix`` read; on the parameters it is
K_jk = 1/(conj z_k - z_j) = -i/w_jk, w_jk = (eta_j + eta_k) + i(x_j - x_k).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameters, DomainError, NonFiniteInput

# relative distance below which two parameters (or poles) count as one
DEGENERACY_TOL = 1e-9


def real_array(values, what):
    """``values`` as floats; DomainError, not a dropped imaginary part, and
    NonFiniteInput, not OverflowError, for an int past the float range."""
    arr = np.asarray(values)
    # an int past the int64 range makes an object array, which hides a
    # complex entry from iscomplexobj
    if np.iscomplexobj(arr) or (arr.dtype == object
                                and any(map(np.iscomplexobj, arr.flat))):
        raise DomainError(f"{what} must be real, not complex")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise NonFiniteInput(f"{what} must lie in the float range") from None


def sample_count(n):
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"sample count {n!r} is not an integer") from None


def cauchy_kernel(ps, qs):
    """K with <f, g> = 2 pi i sum_rs a_r K_rs conj(b_s) for f = sum_r
    a_r / (x - p_r) and g = sum_s b_s / (x - q_s), all poles off the axis.

    K_rs = w_rs / (conj(q_s) - p_r): closing the contour in the upper
    half-plane picks the residue at p_r when Im p_r > 0 and at conj(q_s)
    when Im q_s < 0, so w_rs = [Im q_s < 0] - [Im p_r > 0].  Entries with
    w_rs = 0 are 0 without a division; a coincident pair conj(q_s) = p_r
    always has w_rs = 0.  Nested lists of plain scalars, so the same code
    serves complex doubles and mpmath numbers; a double entry that
    overflows is inf, and nothing is raised.
    """
    kern = []
    for p in ps:
        row = []
        for q in qs:
            w = int(q.imag < 0) - int(p.imag > 0)
            row.append(w / (q.conjugate() - p) if w else 0)
        kern.append(row)
    return kern


@dataclass(frozen=True)
class SolitonParameters:
    """Unordered multiset {z_j} in the lower half-plane, stored sorted.

    The z_j must have finite moduli (else NonFiniteInput) and lie pairwise
    at least DEGENERACY_TOL * max(1, max|z_j|) apart (else
    DegenerateParameters).  ``zs`` is the sorted tuple and ``zs_array`` the
    same values as a read-only complex array.
    """

    zs: tuple = field(default=())
    zs_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            z = np.array(self.zs, dtype=complex)
        except OverflowError:  # an int past the float range
            raise NonFiniteInput("parameters past the float range") from None
        if z.ndim != 1 or z.size < 1:
            raise DomainError("at least one soliton is required")
        # argmax picks a NaN first, so the top modulus is finite iff all are
        mag = np.abs(z)
        k = mag.argmax()
        top = mag[k]
        if not top < np.inf:
            raise NonFiniteInput(f"parameters must be finite: entry {k} is "
                                 f"{z[k]}")
        high = z.imag.argmax()
        if not z.imag[high] < 0:
            raise DomainError(f"parameter {z[high]} must lie in the lower "
                              "half-plane (eta > 0)")
        # complex sort: by real part, then imaginary part
        z.sort()
        # every pair: neighbours in sort order can miss a collision
        dist = np.abs(z[:, None] - z)
        dist.flat[::z.size + 1] = np.inf
        close = dist.argmin()
        if not dist.flat[close] >= DEGENERACY_TOL * max(1.0, top):
            j, k = divmod(close, z.size)
            raise DegenerateParameters(
                f"parameters {z[j]} and {z[k]} collide within tolerance")
        z.flags.writeable = False
        object.__setattr__(self, "zs", tuple(z.tolist()))
        object.__setattr__(self, "zs_array", z)

    @property
    def n(self):
        return len(self.zs)

    @property
    def positions(self):
        return self.zs_array.real.copy()

    @property
    def etas(self):
        return -self.zs_array.imag

    @classmethod
    def from_x_eta(cls, xs, etas):
        xs, etas = real_array(xs, "positions"), real_array(etas, "etas")
        return cls(tuple(complex(x, -e) for x, e in zip(xs, etas)))

    def shifted(self, dx):
        return SolitonParameters(tuple(z + dx for z in self.zs))

    def scaled(self, c):
        """z -> z/c, realizing u_c(x) = c*u(c*x)."""
        return SolitonParameters(tuple(z / c for z in self.zs))


@dataclass(frozen=True)
class GridField:
    """Uniform real-valued samples: values[k] at x0 + k*dx, all finite;
    x0 and dx are stored as floats, refused as the values are."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        x0 = float(real_array(self.x0, "x0"))
        dx = float(real_array(self.dx, "dx"))
        vals = real_array(self.values, "grid values")
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("grid needs at least two samples")
        if not (dx > 0):
            raise DomainError("dx must be positive")
        # in Python floats, which overflow to inf without a numpy warning
        if not np.isfinite(x0 + dx * (vals.size - 1)):
            raise DomainError("grid points must be finite")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "values", vals)

    def xs(self):
        return self.x0 + self.dx * np.arange(self.values.size)

    def same_grid(self, other):
        return (self.values.size == other.values.size
                and abs(self.x0 - other.x0) < 1e-12 * max(1.0, abs(self.x0))
                and abs(self.dx - other.dx) < 1e-12 * self.dx)


def profile_values(params, x):
    """u at the real points x; DomainError for complex x or a non-finite u."""
    x = real_array(x, "points x")
    out = np.zeros_like(x)
    # a soliton far from x overflows its squares and adds its limit 0 (a
    # Python float's ** would raise OverflowError for eta**2); one whose
    # eta**2 underflows divides by 0, which the check below refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for z in params.zs:
            out += 2 * (-z.imag) / ((x - z.real) ** 2 + np.square(z.imag))
    if not np.all(np.isfinite(out)):
        raise DomainError("grid values must be finite")
    return out


def profile(params, x0, dx, n):
    # a non-finite point gives a NaN value or a refused GridField
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0 + dx * np.arange(sample_count(n))
    return GridField(x0, dx, profile_values(params, x))


def torus_potential(params, m):
    """Gap potential on [0, 2*pi): v = 2*Re h, h = -w Qt'(w)/Qt(w), w = e^{iy}.

    The parameter map z -> exp(i z) sends the lower half-plane onto the
    annulus |w| > 1; Qt is monic with roots at the mapped parameters.  So h
    is holomorphic on the closed unit disc with h(0) = 0, and v has mean
    zero.  v + N = sum_j sinh(eta_j)/(cosh(eta_j) - cos(y - x_j)) is the
    2*pi-periodization of the line profile u; the same form built from the
    reflected roots exp(i conj z_j), 2*Re[w Qt'(w)/Qt(w)], equals v + 2N.
    """
    m = sample_count(m)
    if m < 2:
        raise DomainError("need at least two samples")
    dx = 2 * np.pi / m
    eiy = np.exp(1j * (dx * np.arange(m)))  # at the y of the field, bit for bit
    h = np.zeros(m, dtype=complex)
    # an eta past ~709 overflows exp(eta): the term tends to 0; an eta so
    # small that exp(i z) rounds onto |w| = 1 divides by 0: GridField refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for z in params.zs:
            w = np.exp(1j * z)
            if np.isfinite(w):
                h -= eiy / (eiy - w)
    return GridField(0.0, dx, 2 * h.real)
