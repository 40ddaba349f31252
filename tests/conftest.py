import math

import numpy as np
import pytest
import scipy.integrate

from bo_soliton.profiles import SolitonParameters
from bo_soliton.rational import PoleResidueForm, evaluate
from bo_soliton.validation import random_params  # noqa: F401  (reused by tests)

SQRT_PI = np.sqrt(np.pi)

# float spellings the property tests draw from: the CLI reads them as
# written, the API tests as float(s)
SPELLINGS = ["0", "-0", "1", "-1", "0.5", "-2.5", "7", "1e-3", "-1e-3",
             "1e300", "-1e300", "1e-300", "-1e-300", "1e15", "-1e15", "nan",
             "inf", "-inf", "5e-324", "1e-17", "3.0000000000000004"]
FINITE = [s for s in SPELLINGS if math.isfinite(float(s))]
POSITIVE = [s for s in FINITE if float(s) > 0]


def one_soliton():
    return SolitonParameters((-1j,))


def phi_one():
    """Normalized ground eigenfunction of the unit soliton: i/(sqrt(pi)(x+i))."""
    return PoleResidueForm(((-1j, 1, 1j / SQRT_PI),))


def random_form(rng, max_poles=6, max_order=2, half_plane=None):
    """Random rational L2 function with well-separated poles off the axis."""
    n = int(rng.integers(1, max_poles + 1))
    terms = []
    for _ in range(n):
        re = rng.uniform(-5, 5)
        im = rng.uniform(0.3, 3.0)
        if half_plane == "lower":
            sign = -1.0
        elif half_plane == "upper":
            sign = 1.0
        else:
            sign = rng.choice([-1.0, 1.0])
        order = int(rng.integers(1, max_order + 1))
        coeff = complex(rng.normal(), rng.normal())
        terms.append((complex(re, sign * im), order, coeff))
    return PoleResidueForm(tuple(terms))


def quad_inner(f, g, bulk=100.0):
    """Independent oracle for <f, g>: adaptive quadrature over the line.

    The bulk interval carries hint points at the pole real parts; the decaying
    tails are mapped through t = 1/x onto finite intervals, so the comparison
    is against the full-line integral.  The real and the imaginary pass
    share most abscissae, so h is evaluated once per abscissa.
    """
    cache = {}

    def h(x):
        if x not in cache:
            cache[x] = evaluate(f, x) * np.conj(evaluate(g, x))
        return cache[x]

    pts = sorted({p.real for p, _, _ in f.terms}
                 | {p.real for p, _, _ in g.terms})
    pts = [p for p in pts if -bulk < p < bulk]

    def part(fn):
        val, _ = scipy.integrate.quad(fn, -bulk, bulk, points=pts, limit=800,
                                      epsabs=1e-11, epsrel=1e-11)
        for sign in (1.0, -1.0):
            tail, _ = scipy.integrate.quad(
                lambda t: fn(sign / t) / t ** 2, 1e-12, 1.0 / bulk,
                epsabs=1e-11, epsrel=1e-11)
            val += tail
        return val

    return complex(part(lambda x: h(x).real), part(lambda x: h(x).imag))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
