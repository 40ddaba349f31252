"""Property test over the public names of ``bo_soliton``: a call on inputs
of the right types returns finite values or raises a ``BOSolitonError``.

The scalars are drawn from ``conftest.SPELLINGS``, which the CLI property
test draws from too, and from ``st.floats()``; a RuntimeWarning fails an
example, as everywhere in this suite.  Out of scope: the PDE reference (``PdeConfig``, ``run``,
``step``, ``compare``), whose cost grows with its grid, and the
pole-residue calculus of ``rational``, which takes its terms from the
oracle; ``pi_u`` and ``u_rational`` are called.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bo_soliton as bo
from bo_soliton.errors import BOSolitonError
from conftest import FINITE, POSITIVE, SPELLINGS

scalar = st.one_of(st.sampled_from(SPELLINGS).map(float), st.floats())
finite = st.sampled_from(FINITE).map(float)
sizes = st.sampled_from([1, 2, 3, 4])
# parameter rows of any floats, or of distinct finite x and positive
# finite eta, which mostly pass SolitonParameters
params_rows = sizes.flatmap(lambda n: st.one_of(
    st.lists(st.tuples(scalar, scalar), min_size=n, max_size=n),
    st.lists(st.tuples(finite, st.sampled_from(POSITIVE).map(float)),
             min_size=n, max_size=n, unique_by=lambda r: r[0])))
# (actions, angles) of any floats, or increasing negative actions
actions = sizes.flatmap(lambda n: st.tuples(
    st.one_of(st.lists(scalar, min_size=n, max_size=n),
              st.lists(finite.filter(lambda v: v != 0).map(lambda v: -abs(v)),
                       min_size=n, max_size=n, unique=True).map(sorted)),
    st.lists(st.one_of(finite, scalar), min_size=n, max_size=n)))
powers = st.one_of(st.integers(-3, 3), st.sampled_from([-10 ** 4, 10 ** 4]),
                   st.integers(-10 ** 6, 10 ** 6))


def sd_of(p):
    return bo.spectral_decompose(p())


# name -> call on (params, action-angles, three scalars, an integer); the
# records are built in the call, so that their errors count as its own
CALLS = {
    "SolitonParameters": lambda p, aa, s, k: p(),
    "ActionAngles": lambda p, aa, s, k: aa(),
    "spectral_decompose": lambda p, aa, s, k: sd_of(p),
    "forward_map": lambda p, aa, s, k: bo.forward_map(p()),
    "aa_from_spectral": lambda p, aa, s, k: bo.aa_from_spectral(sd_of(p)),
    "verify_m_matrix": lambda p, aa, s, k: bo.verify_m_matrix(sd_of(p)),
    "inverse_map": lambda p, aa, s, k: bo.inverse_map(aa()),
    "m_from_aa": lambda p, aa, s, k: bo.m_from_aa(aa()),
    "evolve_aa": lambda p, aa, s, k: bo.evolve_aa(aa(), s[0]),
    "explicit_solution": lambda p, aa, s, k: bo.explicit_solution(
        aa(), s[0], s[1]),
    "explicit_solution_grid": lambda p, aa, s, k: bo.explicit_solution(
        aa(), s[0], np.array(s[1:])),
    "pi_u_resolvent": lambda p, aa, s, k: bo.pi_u_resolvent(sd_of(p), s[0]),
    "h_lambda": lambda p, aa, s, k: bo.h_lambda(aa(), s[0]),
    "h_lambda_sd": lambda p, aa, s, k: bo.h_lambda(sd_of(p), s[0]),
    "e_n_from_spectrum": lambda p, aa, s, k: bo.e_n_from_spectrum(aa(), k),
    "e_n_from_spectrum_sd": lambda p, aa, s, k: bo.e_n_from_spectrum(
        sd_of(p), k),
    "omega_matrix": lambda p, aa, s, k: bo.omega_matrix(p()),
    "symplectomorphism_check": lambda p, aa, s, k:
        bo.symplectomorphism_check(p()),
    "poisson_bracket_table": lambda p, aa, s, k: bo.poisson_bracket_table(p()),
    "h_lambda_resolvent": lambda p, aa, s, k: bo.h_lambda_resolvent(p(), s[0]),
    "pi_u": lambda p, aa, s, k: bo.pi_u(p()),
    "u_rational": lambda p, aa, s, k: bo.u_rational(p()),
    "profile": lambda p, aa, s, k: bo.profile(p(), s[0], s[1], 2 + abs(k) % 30),
    "e1_quadrature": lambda p, aa, s, k: bo.e1_quadrature(
        bo.profile(p(), s[0], s[1], 2 + abs(k) % 30)),
    "torus_potential": lambda p, aa, s, k: bo.torus_potential(
        p(), abs(k) % 64),
    "GridField": lambda p, aa, s, k: bo.GridField(s[0], s[1], s),
}


def finite_values(value):
    """Every number in a result: arrays, scalars, and the fields of the
    package's records and pole-residue forms."""
    if isinstance(value, bo.PoleResidueForm):
        return [value.constant] + [v for p, _, c in value.terms
                                   for v in (p, c)]
    if dataclasses.is_dataclass(value):
        return [v for f in dataclasses.fields(value)
                for v in finite_values(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [v for item in value for v in finite_values(item)]
    return np.asarray(value).ravel().tolist()


NAN = float("nan")
UNIT = dict(rows=[(0.0, 1.0)], aa=([-1.0], [0.0]), s=(0.0, 0.0, 0.0), k=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(name=st.sampled_from(sorted(CALLS)), rows=params_rows, aa=actions,
       s=st.tuples(scalar, scalar, scalar), k=powers)
# each of these once returned NaN or inf, or raised another error
@example(name="h_lambda_sd", **{**UNIT, "s": (NAN, 0.0, 0.0)})
@example(name="e_n_from_spectrum_sd", **{**UNIT, "rows": [(0.0, 0.1)],
                                         "k": 10 ** 4})
@example(name="explicit_solution", **{**UNIT, "s": (1e308, 0.0, 0.0)})
@example(name="omega_matrix", **{**UNIT, "rows": [(0.0, 1.0), (0.0, 1e300)]})
@example(name="poisson_bracket_table", **{**UNIT, "rows": [(0.0, 1e300)]})
@example(name="omega_matrix", **{**UNIT, "rows": [(0.0, 1e-154)]})
@example(name="evolve_aa", **{**UNIT, "s": (10 ** 400, 0.0, 0.0)})
@example(name="h_lambda", **{**UNIT, "s": (10 ** 400, 0.0, 0.0)})
@example(name="h_lambda_resolvent", **{**UNIT, "s": (NAN, 0.0, 0.0)})
def test_a_public_call_returns_finite_values_or_a_typed_error(name, rows, aa,
                                                             s, k):
    try:
        value = CALLS[name](
            lambda: bo.SolitonParameters.from_x_eta(*zip(*rows)),
            lambda: bo.ActionAngles(*aa), s, k)
    except BOSolitonError:
        return
    bad = [v for v in finite_values(value) if not np.isfinite(v)]
    assert not bad, (name, bad)
