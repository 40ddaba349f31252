"""Property test over the public names of ``bo_soliton``: a call on inputs
of the right types returns finite values or raises a ``BOSolitonError``.

The scalars are drawn from ``conftest.SPELLINGS``, which the CLI property
test draws from too, and from ``st.floats()``; a RuntimeWarning fails an
example, as everywhere in this suite.  Out of scope: the PDE reference
(``PdeConfig``, ``run``, ``step``, ``compare``), whose cost grows with its
grid.  A second property test puts a value of the wrong kind (a pair, a
complex number, a float, None, a string, an int past the float range) into
each slot that reads numbers or a flag, and checks the class and message
of each refusal against ``refusal``: this is the one test statement of the
reading rule of ``profiles``.  Its slots come from ``KINDS``, which gives
every parameter of every public callable a kind; a parameter that the
table lacks fails ``test_every_public_parameter_has_a_kind``.
"""

import dataclasses
import inspect

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bo_soliton as bo
from bo_soliton.errors import BOSolitonError, DomainError, NonFiniteInput
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
UNIT_SD = bo.spectral_decompose(UNIT_P)
FIELD = bo.profile(UNIT_P, -50.0, 1.0, 101)
CFG = bo.PdeConfig(modes=256)
REAL, REALS, COMPLEXES = "real number", "real array", "complex array"
# arrays that must be flat lists, unlike the points of explicit_solution
# and pi_u_resolvent, which may be nested
FLAT_REALS, FLAT_COMPLEXES = "flat real array", "flat complex array"
INTEGER, FLAG, RECORD, EXEMPT = "integer", "flag", "record", "exempt"
# every parameter of every public callable: its kind and a value that the
# call takes.  Wrong types in a record slot are out of scope, and only
# spectral_decompose builds a SpectralData, so its fields are exempt.
KINDS = {
    "ActionAngles": dict(rs=(FLAT_REALS, [-1.0]),
                         alphas=(FLAT_REALS, [0.0])),
    "GridField": dict(x0=(REAL, 0.0), dx=(REAL, 1.0),
                      values=(FLAT_REALS, [0.0, 1.0])),
    "PdeConfig": dict(domain_half_width=(REAL, 400.0), modes=(INTEGER, 256),
                      dt=(REAL, 1e-3), t_end=(REAL, 1.0),
                      snapshot_dt=(REAL, 0.1)),
    "SolitonParameters": dict(zs=(FLAT_COMPLEXES, [-1j])),
    "SolitonParameters.from_x_eta": dict(xs=(FLAT_REALS, [0.0]),
                                         etas=(FLAT_REALS, [1.0])),
    "SolitonParameters.shifted": dict(self=(RECORD, UNIT_P), dx=(REAL, 1.0)),
    "SolitonParameters.scaled": dict(self=(RECORD, UNIT_P), c=(REAL, 2.0)),
    "SpectralData": dict.fromkeys(
        ["lambdas", "gammas", "m_matrix", "zs", "vectors"], (EXEMPT, None)),
    "aa_from_spectral": dict(sd=(RECORD, UNIT_SD)),
    "compare": dict(pde_field=(RECORD, FIELD), explicit_field=(RECORD, FIELD)),
    "e1_quadrature": dict(field=(RECORD, FIELD), periodic=(FLAG, True)),
    "e_n_from_spectrum": dict(sd=(RECORD, UNIT_AA), n=(INTEGER, 1)),
    "evolve_aa": dict(aa=(RECORD, UNIT_AA), t=(REAL, 1.0)),
    "explicit_solution": dict(aa0=(RECORD, UNIT_AA), t=(REAL, 1.0),
                              x=(REALS, [0.0])),
    "forward_map": dict(params=(RECORD, UNIT_P)),
    "h_lambda": dict(sd=(RECORD, UNIT_AA), lam=(REAL, 0.0)),
    "h_lambda_resolvent": dict(params=(RECORD, UNIT_P), lam=(REAL, 0.0)),
    "inverse_map": dict(aa=(RECORD, UNIT_AA)),
    "m_from_aa": dict(aa=(RECORD, UNIT_AA)),
    "omega_matrix": dict(params=(RECORD, UNIT_P)),
    "pi_u_resolvent": dict(sd=(RECORD, UNIT_SD), x=(COMPLEXES, [1j])),
    "poisson_bracket_table": dict(params=(RECORD, UNIT_P)),
    "profile": dict(params=(RECORD, UNIT_P), x0=(REAL, 0.0), dx=(REAL, 1.0),
                    n=(INTEGER, 2)),
    "profile_values": dict(params=(RECORD, UNIT_P), x=(REALS, [0.0])),
    "run": dict(params0=(RECORD, UNIT_P), cfg=(RECORD, CFG)),
    "spectral_decompose": dict(params=(RECORD, UNIT_P)),
    "step": dict(state=(FLAT_COMPLEXES, [0.0] * 129),
                 cfg=(RECORD, CFG)),
    "symplectomorphism_check": dict(params=(RECORD, UNIT_P)),
    "torus_potential": dict(params=(RECORD, UNIT_P), m=(INTEGER, 4)),
    "verify_m_matrix": dict(sd=(RECORD, UNIT_SD)),
}
PUBLIC = {name: getattr(bo, name) for name in bo.__all__
          if callable(getattr(bo, name))}
for method in ("from_x_eta", "shifted", "scaled"):
    PUBLIC[f"SolitonParameters.{method}"] = getattr(bo.SolitonParameters,
                                                    method)
# not in __all__, but synth and every evolve frame run it
PUBLIC["profile_values"] = bo.profiles.profile_values
# (callable, parameter) of each slot that reads numbers or a flag
SLOTS = [(name, param) for name, params in KINDS.items()
         for param, (kind, _) in params.items() if kind not in (RECORD, EXEMPT)]
WRONG_KINDS = {
    "pair": st.lists(finite, min_size=2, max_size=2),
    "complex": st.builds(complex, finite, finite.filter(bool)),
    "float": finite,
    "none": st.none(),
    "string": st.text("abcxyz", min_size=1, max_size=3),
    "huge": st.sampled_from([10 ** 400, -10 ** 400]),
}
# the wrong kinds that a kind of slot takes as its value, and that an
# array slot takes as an entry: a pair is a flat list, not an entry of one
TAKES = {REAL: {"float"}, REALS: {"pair", "float"},
         FLAT_REALS: {"pair", "float"},
         COMPLEXES: {"pair", "complex", "float"},
         FLAT_COMPLEXES: {"pair", "complex", "float"},
         INTEGER: set(), FLAG: set()}
ENTRY_TAKES = {REALS: {"pair", "float"}, FLAT_REALS: {"float"},
               COMPLEXES: {"pair", "complex", "float"},
               FLAT_COMPLEXES: {"complex", "float"}}


def refusal(kind, wrong):
    """(class, message fragment) of the refusal of a value of the ``wrong``
    kind in a slot of ``kind``, alone or as an entry; the first rule that
    applies decides."""
    if kind == FLAG:
        return DomainError, "must be a bool"
    if wrong == "huge":
        return NonFiniteInput, "float range"
    if kind == INTEGER:
        return DomainError, "is not an integer"
    if wrong == "pair":  # alone: only a one-number slot refuses it
        return DomainError, "must be one number"
    if wrong == "complex":
        return DomainError, "must be real, not complex"
    return DomainError, "must be numeric"


# the one refusal that names another callable
OVERRIDES = {("explicit_solution", "x", "complex"):
             (DomainError, "pi_u_resolvent pairs complex ones")}


def call(name, **values):
    """``name`` called on the table's values, with ``values`` in their
    place."""
    args = {param: value for param, (_, value) in KINDS[name].items()}
    return PUBLIC[name](**{**args, **values})


def test_every_public_parameter_has_a_kind():
    signatures = {name: list(inspect.signature(f).parameters)
                  for name, f in PUBLIC.items()}
    assert {name: list(params) for name, params in KINDS.items()} == signatures


def test_the_table_values_are_valid():
    # so that a refusal below comes from the slot under test
    for name in sorted({name for name, _ in SLOTS}):
        call(name)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(values=st.fixed_dictionaries(WRONG_KINDS))
def test_a_wrong_kind_in_a_number_slot_is_a_domain_error(values):
    missed = []
    for name, param in SLOTS:
        kind, valid = KINDS[name][param]
        for wrong, value in values.items():
            expected = OVERRIDES.get((name, param, wrong),
                                     refusal(kind, wrong))
            # an array slot gets the value alone and as its first entry; a
            # pair as an entry of a flat list meets the record's own shape
            # refusal, so only its class is checked (None)
            tries = [(value, expected)] if wrong not in TAKES[kind] else []
            if kind in ENTRY_TAKES and wrong not in ENTRY_TAKES[kind]:
                tries.append(([value] + valid[1:], (DomainError, None)
                              if wrong == "pair" else expected))
            for v, (cls, fragment) in tries:
                try:
                    call(name, **{param: v})
                except Exception as exc:
                    if (isinstance(exc, cls) if fragment is None else
                            type(exc) is cls and fragment in str(exc)):
                        continue
                    missed.append((name, param, wrong, repr(exc)))
                else:
                    missed.append((name, param, wrong, "returned"))
    assert not missed
