"""Property test over the public names of ``bo_soliton``: a call on inputs
of the right types returns finite values or raises a ``BOSolitonError``.

The scalars are drawn from ``conftest.SPELLINGS``, which the CLI property
test draws from too, and from ``st.floats()``; a RuntimeWarning fails an
example, as everywhere in this suite.  Out of scope: the PDE reference
(``PdeConfig``, ``run``, ``step``, ``compare``), whose cost grows with its
grid.  A second property test puts a value of the wrong kind (a pair, a
complex number, None, a string, an int past the float range) into each
slot that takes one number, real points or a pole, and expects a
``DomainError``.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bo_soliton as bo
from bo_soliton.errors import BOSolitonError, DomainError
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
    "profile": lambda p, aa, s, k: bo.profile(p(), s[0], s[1], 2 + abs(k) % 30),
    "e1_quadrature": lambda p, aa, s, k: bo.e1_quadrature(
        bo.profile(p(), s[0], s[1], 2 + abs(k) % 30)),
    "torus_potential": lambda p, aa, s, k: bo.torus_potential(
        p(), abs(k) % 64),
    "GridField": lambda p, aa, s, k: bo.GridField(s[0], s[1], s),
}


def finite_values(value):
    """Every number in a result: arrays, scalars, and the fields of the
    package's records."""
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


UNIT_P = bo.SolitonParameters((-1j,))
UNIT_AA = bo.ActionAngles([-2 * np.pi], [0.0])
# slot -> call with one value in that slot and valid arguments elsewhere
SLOTS = {
    "t": lambda v: bo.evolve_aa(UNIT_AA, v),
    "t_explicit": lambda v: bo.explicit_solution(UNIT_AA, v, 0.0),
    "lambda": lambda v: bo.h_lambda(UNIT_AA, v),
    "lambda_resolvent": lambda v: bo.h_lambda_resolvent(UNIT_P, v),
    "n": lambda v: bo.e_n_from_spectrum(UNIT_AA, v),
    "x0": lambda v: bo.GridField(v, 1.0, [0.0, 1.0]),
    "dx": lambda v: bo.GridField(0.0, v, [0.0, 1.0]),
    "profile_x0": lambda v: bo.profile(UNIT_P, v, 1.0, 2),
    "profile_dx": lambda v: bo.profile(UNIT_P, 0.0, v, 2),
    "pde_dt": lambda v: bo.PdeConfig(dt=v),
    "pde_half_width": lambda v: bo.PdeConfig(domain_half_width=v),
    "shift": lambda v: UNIT_P.shifted(v),
    "scale": lambda v: UNIT_P.scaled(v),
    "points": lambda v: bo.explicit_solution(UNIT_AA, 0.0, v),
    "points_resolvent": lambda v: bo.pi_u_resolvent(
        bo.spectral_decompose(UNIT_P), v),
    "parameters": lambda v: bo.SolitonParameters((v,)),
    "from_x_eta": lambda v: bo.SolitonParameters.from_x_eta([v], [1.0]),
}
# the kinds a slot takes: points come in arrays, pi_u_resolvent pairs
# complex ones, and the parameters are complex
TAKES = {"points": {"pair"}, "points_resolvent": {"pair", "complex"},
         "parameters": {"complex"}}
WRONG_KINDS = {
    "pair": st.lists(finite, min_size=2, max_size=2),
    "complex": st.builds(complex, finite, finite.filter(bool)),
    "none": st.none(),
    "string": st.text("abcxyz", min_size=1, max_size=3),
    "huge": st.sampled_from([10 ** 400, -10 ** 400]),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(values=st.fixed_dictionaries(WRONG_KINDS))
def test_a_wrong_kind_in_a_number_slot_is_a_domain_error(values):
    missed = []
    for slot, call in SLOTS.items():
        for kind, value in values.items():
            if kind in TAKES.get(slot, ()):
                continue
            try:
                call(value)
            except DomainError:
                continue
            except Exception as exc:
                missed.append((slot, kind, type(exc).__name__))
            else:
                missed.append((slot, kind, "returned"))
    assert not missed
