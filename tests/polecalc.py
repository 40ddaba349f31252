"""The oracle the closed forms are tested against: exact calculus for
rational functions in pole-residue form, and the routes of the paper's
characterization built on it.

A function is stored as ``constant + sum c / (x - p)**m`` with complex poles
``p`` off the real axis.  All operations (products, derivatives, Szego
projection, L2 pairings) stay in this representation, so projections are term
filters and integrals are finite residue sums.  Membership tests:

* L2(R): ``constant == 0``;
* Hardy space L2+: additionally every pole in the lower half-plane.

On it sit the routes in the partial-fraction basis 1/(x - z_r): Pi u = i Q'/Q
(``pi_u``) and u (``u_rational``), 1 - Theta, the operators ``lax_apply``
and ``g_apply``, the eigenfunctions and the condition number of the Cauchy
Gram.  Pairings of simple poles run over
:func:`bo_soliton.profiles.cauchy_kernel` and are summed by
:func:`bo_soliton.oracle.mp_pairing`, the package's one exact residue sum.
No module of the package imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import mpmath
import numpy as np

from bo_soliton.errors import (
    DegenerateParameters,
    DomainError,
    InvariantViolation,
    PoleProximity,
)
from bo_soliton.oracle import MP_DPS, eigen_coeffs, mp_pairing
from bo_soliton.profiles import DEGENERACY_TOL, cauchy_kernel

DROP_TOL = 1e-14
POLE_REAL_TOL = 1e-12
ORDER_RESIDUAL_TOL = 1e-8


class DegreeError(DomainError):
    """Polynomial degree outside the admissible range."""


class NotSquareIntegrable(DomainError):
    """Rational function has a nonzero constant part, hence is not in L2."""


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
    def in_hardy(self):
        return self.constant == 0 and all(p.imag < 0 for p, _, _ in self.terms)

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


# -- the characterization Pi u = i Q'/Q and the operators on its span -------

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


def cauchy_gram(zs):
    """Condition number of the Gram matrix of the basis 1/(x - z_r), which is
    2 pi i times the :func:`cauchy_kernel` of the poles ``zs``."""
    kern = 2j * np.pi * np.array(cauchy_kernel(zs, zs))
    return float(np.linalg.cond(0.5 * (kern.T + kern.conj())))


def eigenfunctions(sd):
    """phi_j in pole-residue form, coefficients rounded to doubles."""
    return tuple(PoleResidueForm(tuple((z, 1, complex(c))
                                       for z, c in zip(sd.zs, col)))
                 for col in eigen_coeffs(sd))
