"""Exact calculus for rational functions in pole-residue form.

A function is stored as ``constant + sum c / (x - p)**m`` with complex poles
``p`` off the real axis.  All operations (products, derivatives, Szego
projection, L2 pairings) stay in this representation, so projections are term
filters and integrals are finite residue sums.  Membership tests:

* L2(R): ``constant == 0``;
* Hardy space L2+: additionally every pole in the lower half-plane.

The calculus serves the reference routes of :mod:`bo_soliton.oracle`; no
production module imports it.
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
from .profiles import DEGENERACY_TOL

DROP_TOL = 1e-14
POLE_REAL_TOL = 1e-12
# working precision (decimal digits) of every extended-precision fallback
MP_DPS = 40


def _pole_scale(mods):
    return max(1.0, max(mods, default=1.0))


def _canonical(termdict, constant):
    """Merge equal (pole, order) keys, prune tiny coefficients, sort."""
    if termdict:
        scale = max(max(abs(c) for c in termdict.values()), abs(constant))
    else:
        scale = abs(constant)
    cut = DROP_TOL * scale
    terms = []
    for (pole, order), coeff in termdict.items():
        if abs(coeff) <= cut or coeff == 0:
            continue
        if abs(pole.imag) <= POLE_REAL_TOL:
            raise InvariantViolation(
                f"pole {pole} lies on the real axis (|Im| <= {POLE_REAL_TOL:g})")
        terms.append((pole, order, coeff))
    if abs(constant) <= cut:
        constant = 0j
    terms.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
    return tuple(terms), complex(constant)


@dataclass(frozen=True)
class PoleResidueForm:
    """Rational function ``constant + sum coeff/(x - pole)**order``.

    ``terms`` is a tuple of ``(pole, order, coeff)`` triples with unique
    (pole, order) keys; construction canonicalizes arbitrary input.
    """

    terms: tuple = field(default=())
    constant: complex = 0j

    def __post_init__(self):
        td = {}
        for pole, order, coeff in self.terms:
            key = (complex(pole), int(order))
            td[key] = td.get(key, 0j) + complex(coeff)
        terms, constant = _canonical(td, complex(self.constant))
        object.__setattr__(self, "terms", terms)
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

    def __call__(self, x):
        return evaluate(self, x)


ZERO = PoleResidueForm()


def _as_dict(f):
    return {(p, m): c for p, m, c in f.terms}


def pf_decompose(numerator_coeffs, den_roots):
    """Partial fractions of P(x) / prod(x - r) with simple denominator roots.

    ``numerator_coeffs`` are highest-degree-first.  Requires
    deg P <= len(den_roots); when equality holds the leading coefficient
    becomes the constant part.  Simple-pole coefficients are P(r)/Q'(r).
    """
    roots = [complex(r) for r in den_roots]
    n = len(roots)
    if n == 0:
        raise DegreeError("empty denominator root list")
    coeffs = np.trim_zeros(np.asarray(numerator_coeffs, dtype=complex), "f")
    if coeffs.size == 0:
        return ZERO
    deg_p = coeffs.size - 1
    if deg_p > n:
        raise DegreeError(f"deg P = {deg_p} exceeds deg Q = {n}")
    _check_pairwise_distinct(roots)

    constant = coeffs[0] if deg_p == n else 0j
    td = {}
    for k, r in enumerate(roots):
        qprime = np.prod([r - roots[j] for j in range(n) if j != k]) if n > 1 else 1.0
        td[(r, 1)] = complex(np.polyval(coeffs, r) / qprime)
    return PoleResidueForm(tuple((p, m, c) for (p, m), c in td.items()), constant)


def _check_pairwise_distinct(poles):
    pts = list(poles)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            tol = DEGENERACY_TOL * _pole_scale([abs(pts[i]), abs(pts[j])])
            if pts[i] != pts[j] and abs(pts[i] - pts[j]) < tol:
                raise DegenerateParameters(
                    f"poles {pts[i]} and {pts[j]} closer than {tol:g}")


def add(f, g):
    td = _as_dict(f)
    for key, c in _as_dict(g).items():
        td[key] = td.get(key, 0j) + c
    return PoleResidueForm(tuple((p, m, c) for (p, m), c in td.items()),
                           f.constant + g.constant)


def scale(f, a):
    a = complex(a)
    return PoleResidueForm(tuple((p, m, a * c) for p, m, c in f.terms),
                           a * f.constant)


def _split_pair(p, m, q, n):
    """Partial fractions of 1/((x-p)^m (x-q)^n) for p != q.

    Returns {(pole, order): coeff}.  Coefficients come from the binomial
    expansion of the complementary factor around each pole.
    """
    out = {}
    d = p - q
    for j in range(1, m + 1):  # orders at p
        i = m - j
        out[(p, j)] = (-1) ** i * comb(n + i - 1, i) * d ** (-(n + i))
    d = q - p
    for k in range(1, n + 1):  # orders at q
        i = n - k
        out[(q, k)] = (-1) ** i * comb(m + i - 1, i) * d ** (-(m + i))
    return out


def multiply(f, g):
    """Exact product, re-expanded into pole-residue form."""
    td = {}

    def bump(key, c):
        td[key] = td.get(key, 0j) + c

    if g.constant != 0:
        for p, m, c in f.terms:
            bump((p, m), c * g.constant)
    if f.constant != 0:
        for q, n, c in g.terms:
            bump((q, n), c * f.constant)
    const = f.constant * g.constant

    for p, m, cf in f.terms:
        for q, n, cg in g.terms:
            c = cf * cg
            if p == q:
                bump((p, m + n), c)
                continue
            tol = DEGENERACY_TOL * _pole_scale([abs(p), abs(q)])
            if abs(p - q) < tol:
                raise DegenerateParameters(
                    f"distinct poles {p} and {q} closer than {tol:g}")
            for key, w in _split_pair(p, m, q, n).items():
                bump(key, c * w)

    return PoleResidueForm(tuple((p, m, c) for (p, m), c in td.items()), const)


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
    td = {}
    const = 0j
    for p, m, c in f.terms:
        td[(p, m)] = td.get((p, m), 0j) + p * c
        if m == 1:
            const += c
        else:
            td[(p, m - 1)] = td.get((p, m - 1), 0j) + c
    return PoleResidueForm(tuple((p, m, c) for (p, m), c in td.items()), const)


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


def _all_simple(f):
    return all(m == 1 for _, m, _ in f.terms)


def mp_pairing(f, g, kern):
    """sum_rs f_r K_rs conj(g_s) of mpmath numbers, summed exactly; <f, g>
    when K is the Cauchy kernel of :func:`bo_soliton.oracle.cauchy_entries`.
    """
    return mpmath.fsum(f[r] * mpmath.conj(g[s]) * kern[r][s]
                       for r in range(len(f)) for s in range(len(g)))


def inner_product(f, g):
    """L2 pairing <f, g> = integral of f * conj(g) over the real line.

    Closing the contour in the upper half-plane gives 2*pi*i times the sum of
    residues of f * g^* there, where g^* has conjugated poles/coefficients.
    For simple poles this is a finite double sum over a Cauchy-type kernel;
    when the summands cancel strongly (nearly parallel pole clusters), the
    sum is redone in MP_DPS digits from the exact double inputs and summed
    by :func:`mp_pairing`.  Higher-order poles go through the exact product
    expansion instead.
    """
    if f.constant != 0 or g.constant != 0:
        raise NotSquareIntegrable("both factors must be in L2 (constant = 0)")
    if f.is_zero or g.is_zero:
        return 0j

    if _all_simple(f) and _all_simple(g):
        pf = np.array([p for p, _, _ in f.terms])
        cf = np.array([c for _, _, c in f.terms])
        pg = np.array([p for p, _, _ in g.terms])
        cg = np.array([c for _, _, c in g.terms])
        qbar = pg.conj()
        # residue weights at upper poles of f and at conjugated poles of g;
        # coincident points cancel exactly and are masked out of the kernel
        ind = (pg.imag < 0)[None, :].astype(float) \
            - (pf.imag > 0)[:, None].astype(float)
        denom = qbar[None, :] - pf[:, None]
        mask = denom != 0
        weights = np.zeros_like(denom)
        np.divide(ind, denom, out=weights, where=mask)
        cg_conj = cg.conj()
        val = cf @ weights @ cg_conj
        cancel = np.abs(cf) @ np.abs(weights) @ np.abs(cg_conj)
        if 1e-16 * cancel > 1e-14 * max(1.0, abs(val)):
            # a masked entry can sit on a coincident pole pair: it stays 0
            with mpmath.workdps(MP_DPS):
                mpc = mpmath.mpc
                kern = [[float(ind[r, s]) / (mpmath.conj(mpc(q)) - mpc(p))
                         if ind[r, s] else 0 for s, q in enumerate(pg)]
                        for r, p in enumerate(pf)]
                val = complex(mp_pairing([mpc(c) for c in cf],
                                         [mpc(c) for c in cg], kern))
        return complex(2j * np.pi * val)

    prod = multiply(f, conj_reflect(g))
    res = sum(c for p, m, c in prod.terms if m == 1 and p.imag > 0)
    return complex(2j * np.pi * res)


def evaluate(f, x):
    """Direct summation at a real or complex point (or numpy array)."""
    xs = np.asarray(x, dtype=complex)
    for p, _, _ in f.terms:
        tol = DEGENERACY_TOL * _pole_scale([abs(p)])
        if np.any(np.abs(xs - p) < tol):
            raise PoleProximity(f"evaluation point within {tol:g} of pole {p}")
    out = np.full(xs.shape, f.constant, dtype=complex)
    for p, m, c in f.terms:
        out += c / (xs - p) ** m
    if out.shape == ():
        return complex(out)
    return out
