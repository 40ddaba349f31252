"""Exact calculus for rational functions in pole-residue form.

A function is stored as ``constant + sum c / (x - p)**m`` with complex poles
``p`` off the real axis.  All operations (products, derivatives, Szego
projection, L2 pairings) stay in this representation, so projections are term
filters and integrals are finite residue sums.  Membership tests:

* L2(R): ``constant == 0``;
* Hardy space L2+: additionally every pole in the lower half-plane.

The calculus serves the reference routes of :mod:`bo_soliton.oracle`; no
production module imports it.  Its residue sums run over
:func:`bo_soliton.profiles.cauchy_kernel`, which this module re-exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import mpmath
import numpy as np

from .errors import (
    DegenerateParameters,
    DegreeError,
    InvariantViolation,
    NotSquareIntegrable,
    PoleProximity,
)
from .profiles import DEGENERACY_TOL, cauchy_kernel

DROP_TOL = 1e-14
POLE_REAL_TOL = 1e-12
# working precision (decimal digits) of every extended-precision route
MP_DPS = 40


@dataclass(frozen=True)
class PoleResidueForm:
    """Rational function ``constant + sum coeff/(x - pole)**order``.

    ``terms`` is a tuple of ``(pole, order, coeff)`` triples with unique
    (pole, order) keys; construction canonicalizes arbitrary input, summing
    equal keys in input order, so the operations below pass raw term lists.
    """

    terms: tuple = field(default=())
    constant: complex = 0j

    def __post_init__(self):
        td = {}
        for pole, order, coeff in self.terms:
            key = (complex(pole), int(order))
            td[key] = td.get(key, 0j) + complex(coeff)
        constant = complex(self.constant)
        # prune coefficients below DROP_TOL of the largest, then sort
        cut = DROP_TOL * max([abs(c) for c in td.values()] + [abs(constant)])
        terms = []
        for (pole, order), coeff in td.items():
            if abs(coeff) <= cut or coeff == 0:
                continue
            if abs(pole.imag) <= POLE_REAL_TOL:
                raise InvariantViolation(f"pole {pole} lies on the real axis "
                                         f"(|Im| <= {POLE_REAL_TOL:g})")
            terms.append((pole, order, coeff))
        if abs(constant) <= cut:
            constant = 0j
        terms.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "constant", constant)

    # -- structure queries ----------------------------------------------

    @property
    def is_zero(self):
        return not self.terms and self.constant == 0

    @property
    def in_l2(self):
        return self.constant == 0

    @property
    def in_hardy(self):
        return self.in_l2 and all(p.imag < 0 for p, _, _ in self.terms)

    def poles(self):
        return sorted({p for p, _, _ in self.terms}, key=lambda z: (z.real, z.imag))

    def max_order(self):
        return max((m for _, m, _ in self.terms), default=0)

    def coeff_scale(self):
        return max((abs(c) for _, _, c in self.terms), default=0.0)


ZERO = PoleResidueForm()


def add(f, g):
    return PoleResidueForm(f.terms + g.terms, f.constant + g.constant)


def scale(f, a):
    a = complex(a)
    return PoleResidueForm(tuple((p, m, a * c) for p, m, c in f.terms),
                           a * f.constant)


def _split_pair(p, m, q, n):
    """Partial fractions of 1/((x-p)^m (x-q)^n) for p != q.

    Returns (pole, order, coeff) triples.  Coefficients come from the
    binomial expansion of the complementary factor around each pole.
    """
    out = []
    d = p - q
    for j in range(1, m + 1):  # orders at p
        i = m - j
        out.append((p, j, (-1) ** i * comb(n + i - 1, i) * d ** (-(n + i))))
    d = q - p
    for k in range(1, n + 1):  # orders at q
        i = n - k
        out.append((q, k, (-1) ** i * comb(m + i - 1, i) * d ** (-(m + i))))
    return out


def multiply(f, g):
    """Exact product, re-expanded into pole-residue form."""
    terms = []
    if g.constant != 0:
        terms += [(p, m, c * g.constant) for p, m, c in f.terms]
    if f.constant != 0:
        terms += [(q, n, c * f.constant) for q, n, c in g.terms]
    const = f.constant * g.constant

    for p, m, cf in f.terms:
        for q, n, cg in g.terms:
            c = cf * cg
            if p == q:
                terms.append((p, m + n, c))
                continue
            # _split_pair divides by p - q: refuse nearly equal poles
            tol = DEGENERACY_TOL * max(1.0, abs(p), abs(q))
            if abs(p - q) < tol:
                raise DegenerateParameters(
                    f"poles {p} and {q} closer than {tol:g}")
            terms += [(r, k, c * w) for r, k, w in _split_pair(p, m, q, n)]

    return PoleResidueForm(tuple(terms), const)


def derivative(f):
    """d/dx in pole-residue form; the constant part differentiates to zero."""
    return PoleResidueForm(
        tuple((p, m + 1, -m * c) for p, m, c in f.terms), 0j)


def multiply_by_x(f):
    """x * f, using x/(x-p)^m = 1/(x-p)^(m-1) + p/(x-p)^m.

    Order-1 terms shed a constant ``c``; a nonzero input constant would leave
    the admissible class, hence DegreeError.
    """
    if f.constant != 0:
        raise DegreeError("x * constant is not a decaying rational function")
    terms = []
    const = 0j
    for p, m, c in f.terms:
        terms.append((p, m, p * c))
        if m == 1:
            const += c
        else:
            terms.append((p, m - 1, c))
    return PoleResidueForm(tuple(terms), const)


def szego_project(f):
    """Projection onto the Hardy space: keep lower-half-plane poles."""
    if f.constant != 0:
        raise NotSquareIntegrable("constant part must vanish for L2 membership")
    return PoleResidueForm(tuple(t for t in f.terms if t[0].imag < 0), 0j)


def conj_reflect(f):
    """The function x -> conj(f(x)) for real x, again in pole-residue form."""
    return PoleResidueForm(
        tuple((p.conjugate(), m, c.conjugate()) for p, m, c in f.terms),
        f.constant.conjugate())


def mp_pairing(f, g, kern):
    """sum_rs f_r K_rs conj(g_s) of mpmath numbers, summed exactly; 2 pi i
    times it is <f, g> when K is the :func:`cauchy_kernel` of the poles.
    """
    return mpmath.fsum(f[r] * mpmath.conj(g[s]) * kern[r][s]
                       for r in range(len(f)) for s in range(len(g)))


def inner_product(f, g):
    """L2 pairing <f, g> = integral of f * conj(g) over the real line.

    Closing the contour in the upper half-plane gives 2*pi*i times the sum of
    residues of f * g^* there, where g^* has conjugated poles/coefficients.
    For simple poles this is the double sum over :func:`cauchy_kernel`,
    always formed in MP_DPS digits from the exact double inputs and summed
    by :func:`mp_pairing`, so nearly parallel pole clusters, whose summands
    cancel strongly, still give a correctly rounded result.  Higher-order
    poles go through the exact product expansion instead.
    """
    if f.constant != 0 or g.constant != 0:
        raise NotSquareIntegrable("both factors must be in L2 (constant = 0)")
    if max(f.max_order(), g.max_order()) == 1:
        mpc = mpmath.mpc
        with mpmath.workdps(MP_DPS):
            kern = cauchy_kernel([mpc(p) for p, _, _ in f.terms],
                                 [mpc(q) for q, _, _ in g.terms])
            val = mp_pairing([mpc(c) for _, _, c in f.terms],
                             [mpc(c) for _, _, c in g.terms], kern)
            return complex(2j * mpmath.pi * val)

    prod = multiply(f, conj_reflect(g))
    res = sum(c for p, m, c in prod.terms if m == 1 and p.imag > 0)
    return complex(2j * np.pi * res)


def evaluate(f, x):
    """Direct summation at a real or complex point (or numpy array)."""
    xs = np.asarray(x, dtype=complex)
    poles = np.array([p for p, _, _ in f.terms], dtype=complex)
    tols = DEGENERACY_TOL * np.maximum(1.0, np.abs(poles))
    near = np.abs(np.subtract.outer(xs, poles)) < tols
    if np.count_nonzero(near):
        k = int(np.nonzero(near)[-1].min())  # the first term hit
        raise PoleProximity(
            f"evaluation point within {tols[k]:g} of pole {f.terms[k][0]}")
    out = np.full(xs.shape, f.constant, dtype=complex)
    for p, m, c in f.terms:
        out += c / (xs - p) ** m
    if out.shape == ():
        return complex(out)
    return out
