"""Soliton parameter bookkeeping and profile synthesis.

Translation-scaling parameters z_j = x_j - i*eta_j (position x_j, inverse
amplitude eta_j = 1/c_j) determine the profile

    u(x) = sum_j 2*eta_j / ((x - x_j)**2 + eta_j**2),

its Hardy representative Pi u = i Q'/Q with Q = prod (x - z_j), and the
periodic gap potential obtained through z -> exp(i z).  Pi u and u in
pole-residue form belong to the tests' calculus, not to the package.
Where a sample is not finite, ``profile_values`` and ``torus_potential``
raise DomainError; an overflowed term adds 0.

``cauchy_kernel`` is the one Cauchy kernel of the package, which ``oracle``
and ``invariants.omega_matrix`` read; on the parameters it is
K_jk = 1/(conj z_k - z_j) = -i/w_jk, w_jk = (eta_j + eta_k) + i(x_j - x_k).

Every public number is read here, into a new array, by ``_numbers``:
through ``real_number`` (one real number), ``real_array``,
``complex_array``, ``integer`` (an order) and ``count`` (a count).  A
non-number, or complex where a real is read, is a DomainError; an int past
the float range raises NonFiniteInput.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameters, DomainError, NonFiniteInput

# relative distance below which two parameters (or poles) count as one
DEGENERACY_TOL = 1e-9


def _numbers(values, what, dtype):
    """A new array of ``dtype``, float or complex, from ``values``, which a
    record may keep; DomainError for a ragged nesting, a non-number entry
    and, into floats, a complex one, NonFiniteInput past the float range."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise DomainError(f"{what} must not be a ragged nesting") from None
    if arr.dtype.kind not in "biufc":
        # as objects, since a string array holds its numbers as strings too
        bad = [v for v in np.asarray(values, dtype=object).flat
               if not isinstance(v, numbers.Number)]
        if bad:
            raise DomainError(f"{what} must be numeric, not {bad[0]!r}")
    # an int past the int64 range makes an object array, which hides a
    # complex entry from iscomplexobj
    if dtype is float and (np.iscomplexobj(arr) or (
            arr.dtype == object and any(map(np.iscomplexobj, arr.flat)))):
        raise DomainError(f"{what} must be real, not complex")
    try:
        return np.array(arr, dtype=dtype)
    except OverflowError:
        raise NonFiniteInput(f"{what} must lie in the float range") from None


def real_array(values, what):
    """``values`` as floats, read by :func:`_numbers`."""
    return _numbers(values, what, float)


def complex_array(values, what):
    """``values`` as complex numbers, read by :func:`_numbers`."""
    return _numbers(values, what, complex)


def real_number(value, what):
    """``value`` read as :func:`real_array` reads it, as one float;
    DomainError for a list or an array."""
    arr = real_array(value, what)
    if arr.ndim:
        raise DomainError(f"{what} must be one number, not shape {arr.shape}")
    return float(arr)


def integer(value, what):
    """``value`` as an int (a bool or numpy integer passes); DomainError for
    anything else, a float too, and NonFiniteInput past the float range,
    the only bound on an order; :func:`count` bounds a count."""
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} {value!r} is not an integer") from None
    _numbers(n, what, float)
    return n


def count(value, what):
    """``value`` read by :func:`integer`, and DomainError past the most
    complex128 entries that numpy can size."""
    n, most = integer(value, what), np.iinfo(np.intp).max // 16
    if n > most:
        raise DomainError(f"{what} must be at most {most}")
    return n


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
        z = complex_array(self.zs, "parameters")
        if z.ndim != 1:
            raise DomainError(f"parameters must be one flat list, not {z.ndim}-D")
        if z.size < 1:
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
        if xs.ndim != 1 or xs.shape != etas.shape:
            raise DomainError(f"positions and etas must be flat lists of one "
                              f"length, not of shapes {xs.shape} and "
                              f"{etas.shape}")
        return cls(tuple(complex(x, -e) for x, e in zip(xs, etas)))

    def shifted(self, dx):
        """z -> z + dx for a real shift dx."""
        dx = real_number(dx, "shift")
        return SolitonParameters(tuple(z + dx for z in self.zs))

    def scaled(self, c):
        """z -> z/c, realizing u_c(x) = c*u(c*x), for a scale c > 0."""
        c = real_number(c, "scale")
        if not c > 0:
            raise DomainError(f"scale {c} must be positive")
        return SolitonParameters(tuple(z / c for z in self.zs))


@dataclass(frozen=True)
class GridField:
    """Uniform real-valued samples: values[k] at x0 + k*dx, all finite;
    x0 and dx are stored as floats, refused as the values are."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        x0 = real_number(self.x0, "x0")
        dx = real_number(self.dx, "dx")
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
    x0, dx = real_number(x0, "x0"), real_number(dx, "dx")
    # a non-finite point gives a NaN value or a refused GridField
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0 + dx * np.arange(count(n, "sample count"))
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
    m = count(m, "sample count")
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
