import numpy as np
import pytest

from bo_soliton.action_angle import (
    ActionAngles,
    evolve_aa,
    explicit_solution,
    inverse_map,
    pi_u_resolvent,
)
from bo_soliton.errors import DegenerateParameters, DomainError, NonFiniteInput
from bo_soliton.invariants import e_n_from_spectrum, h_lambda
from bo_soliton.oracle import h_lambda_resolvent
from bo_soliton.pde import PdeConfig
from bo_soliton.profiles import (
    GridField,
    SolitonParameters,
    profile,
    profile_values,
    real_array,
    torus_potential,
)
from bo_soliton.spectral import spectral_decompose
from conftest import random_params
from polecalc import evaluate, pi_u, u_rational


class TestParameters:
    def test_lower_half_plane_required(self):
        with pytest.raises(DomainError, match="lower half-plane"):
            SolitonParameters((1j,))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParameters):
            SolitonParameters((-1j, -1j * (1 + 1e-12)))

    def test_collision_beyond_sort_neighbours_rejected(self):
        # -1j and 2e-12 - 1j collide, but 1e-12 - 5j sorts between them
        with pytest.raises(DegenerateParameters):
            SolitonParameters((-1j, 1e-12 - 5j, 2e-12 - 1j))

    @pytest.mark.parametrize("z", [complex(np.nan, -1.0), -np.inf * 1j,
                                   complex(np.inf, -1.0)])
    def test_non_finite_rejected(self, z):
        with pytest.raises(NonFiniteInput):
            SolitonParameters((z,))

    @pytest.mark.parametrize("zs", [("a",), (None,), ("1-1j",),
                                    (1 - 1j, "2-1j")],
                             ids=["letter", "none", "string", "mixed"])
    def test_entries_that_are_not_numbers_refused(self, zs):
        # None is not NaN, and a string is not a pole even where it spells
        # a complex number
        with pytest.raises(DomainError, match="parameters must be numeric"):
            SolitonParameters(zs)

    def test_nested_parameters_refused(self):
        with pytest.raises(DomainError, match="one flat list, not 2-D"):
            SolitonParameters(((1 - 1j, 2 - 1j),))

    @pytest.mark.parametrize("xs, etas", [([0.0, 1.0], [1.0]),
                                          ([0.0], [1.0, 2.0]),
                                          ([[0.0, 1.0]], [[1.0, 0.5]])],
                             ids=["short-etas", "short-xs", "nested"])
    def test_from_x_eta_needs_flat_lists_of_one_length(self, xs, etas):
        # zip would truncate the longer list to a smaller N
        with pytest.raises(DomainError, match="flat lists of one length"):
            SolitonParameters.from_x_eta(xs, etas)

    def test_empty_rejected(self):
        with pytest.raises(DomainError,
                           match="at least one soliton is required"):
            SolitonParameters(())

    def test_canonical_order(self):
        p = SolitonParameters((2 - 1j, -1 - 2j))
        assert p.zs == (-1 - 2j, 2 - 1j)

    def test_array_is_read_only_and_matches_zs(self):
        p = SolitonParameters(np.array([2 - 1j, -1 - 2j]))
        assert tuple(p.zs_array.tolist()) == p.zs
        assert not p.zs_array.flags.writeable
        with pytest.raises(ValueError):
            p.zs_array[0] = 0
        q = SolitonParameters(p.zs)
        assert p == q and hash(p) == hash(q)
        assert "zs_array" not in repr(p)

    def test_callers_array_keeps_its_order_and_stays_writeable(self):
        # the complex reader returns an ndarray as it is, and the sort must
        # not reorder or freeze it
        z = np.array([2 - 1j, -1 - 2j])
        assert SolitonParameters(z).zs == (-1 - 2j, 2 - 1j)
        assert z.tolist() == [2 - 1j, -1 - 2j] and z.flags.writeable

    @pytest.mark.parametrize("call", [
        # a complex shift thinned every soliton, a complex scale rotated
        # the poles, and a zero scale raised a bare ZeroDivisionError
        pytest.param(lambda p: p.shifted(0.2j), id="complex-shift"),
        pytest.param(lambda p: p.shifted([1.0, 2.0]), id="shift-pair"),
        pytest.param(lambda p: p.scaled(1j), id="complex-scale"),
        pytest.param(lambda p: p.scaled(0), id="zero-scale"),
        pytest.param(lambda p: p.scaled(-2.0), id="negative-scale"),
        pytest.param(lambda p: p.scaled(np.nan), id="nan-scale"),
    ])
    def test_real_shift_and_positive_scale(self, call):
        with pytest.raises(DomainError, match="(shift|scale)"):
            call(SolitonParameters((1 - 1j, 2 - 0.5j)))


class TestPiU:
    def test_one_soliton(self):
        f = pi_u(SolitonParameters((-1j,)))
        assert f.terms == ((-1j, 1, 1j),)

    def test_two_solitons_additive(self):
        f = pi_u(SolitonParameters((-1j, 1 - 1j)))
        assert set(f.terms) == {(-1j, 1, 1j), (1 - 1j, 1, 1j)}

    def test_real_part_gives_profile(self, rng):
        params = random_params(rng, 4)
        f = pi_u(params)
        for x in rng.uniform(-10, 10, 20):
            assert abs(2 * np.real(evaluate(f, x))
                       - profile_values(params, x)) < 1e-12

    def test_hardy_membership(self, rng):
        assert pi_u(random_params(rng, 5)).in_hardy


class TestProfile:
    def test_peak_value(self):
        g = profile(SolitonParameters((-1j,)), -5, 2.5, 5)
        assert g.values[2] == pytest.approx(2.0, abs=1e-14)

    def test_scaling(self):
        for c in (0.5, 2.0, 7.0):
            g = profile(SolitonParameters((-1j / c,)), -1, 1.0, 3)
            assert g.values[1] == pytest.approx(2.0 * c, rel=1e-14)

    def test_mass(self, rng):
        params = random_params(rng, 3)
        n = 2 ** 17
        g = profile(params, -1e4, 2e4 / n, n + 1)
        mass = np.trapezoid(g.values, dx=g.dx)
        assert mass == pytest.approx(2 * np.pi * 3, rel=1e-2)

    def test_positive(self, rng):
        params = random_params(rng, 5)
        assert np.all(profile(params, -100, 0.5, 401).values > 0)


class TestTorusPotential:
    def test_needs_two_samples(self):
        with pytest.raises(DomainError, match="need at least two samples"):
            torus_potential(SolitonParameters((-1j,)), 1)

    def test_one_soliton_value(self):
        v = torus_potential(SolitonParameters((-1j,)), 256)
        assert v.values[0] == pytest.approx(-2.0 / (1.0 - np.e), abs=1e-12)
        assert v.values[0] == pytest.approx(1.1639534137, abs=1e-9)

    def test_zero_mean(self, rng):
        # mode zero of the gap potential vanishes: the mapped roots sit
        # outside the unit circle, so h extends holomorphically inside
        for n in (1, 2, 4):
            params = random_params(rng, n)
            v = torus_potential(params, 512)
            assert abs(v.values.mean()) < 1e-8

    def test_shift_periodicity(self, rng):
        params = random_params(rng, 3)
        shifted = params.shifted(2 * np.pi)
        a = torus_potential(params, 256)
        b = torus_potential(shifted, 256)
        assert np.abs(a.values - b.values).max() < 1e-10

    def test_values_at_its_own_grid(self, rng):
        # at m = 300, 2*pi*k/m and k*(2*pi/m) differ in the last bit for
        # about half the k; the written y must be where v was evaluated
        params = random_params(rng, 3)
        field = torus_potential(params, 300)
        eiy = np.exp(1j * field.xs())
        h = np.zeros(300, dtype=complex)
        for z in params.zs:
            h -= eiy / (eiy - np.exp(1j * z))
        assert np.array_equal(field.values, 2 * h.real)


class TestFloatLimits:
    # numpy's RuntimeWarnings are errors in this suite, so each case also
    # shows that the formula reports no raw warning
    def test_far_soliton_gives_zeros(self):
        u = profile_values(SolitonParameters((1e300 - 1j,)), [-1.0, 0.0, 1.0])
        assert np.array_equal(u, np.zeros(3))

    def test_underflowed_eta_is_domain_error(self):
        with pytest.raises(DomainError, match="grid values must be finite"):
            profile_values(SolitonParameters((-1e-200j,)), [-1.0, 0.0, 1.0])

    def test_huge_eta_adds_zero(self):
        # eta**2 overflows to inf, so that soliton's term is 0
        xs = [-1.0, 0.0, 1.0]
        u = profile_values(SolitonParameters((1 - 1e300j, -1j)), xs)
        assert np.array_equal(u, profile_values(SolitonParameters((-1j,)), xs))

    def test_huge_torus_soliton_gives_zeros(self):
        field = torus_potential(SolitonParameters((-1000j,)), 8)
        assert np.array_equal(field.values, np.zeros(8))


class TestGridField:
    def test_xs(self):
        g = GridField(-1.0, 0.5, np.zeros(5))
        assert np.allclose(g.xs(), [-1, -0.5, 0, 0.5, 1])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            GridField(0.0, 1.0, np.array([0.0, np.nan]))

    def test_needs_two_samples(self):
        with pytest.raises(DomainError,
                           match="grid needs at least two samples"):
            GridField(0.0, 1.0, [1.0])


class TestInputTypes:
    """A complex value, a list or a non-number where one real number is
    required, or a count or order that is not an integer, is a DomainError:
    no imaginary part is dropped, and no bare TypeError escapes. Each case
    names a call that once failed in its own way; the slot table of
    ``test_api_properties`` states the rule for every public slot. The
    table does not try a complex entry beside an int past the int64 range,
    an int past the float range after the first entry, counts numpy cannot
    size, or whether a record keeps its own copy of what it read."""

    aa = ActionAngles([-2 * np.pi], [0.0])
    params = SolitonParameters((-1j,))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda aa, p: ActionAngles([-1 + 0.5j], [0.0]), id="rs"),
        pytest.param(lambda aa, p: ActionAngles([-1.0], np.array([0j])),
                     id="alphas"),
        pytest.param(lambda aa, p: evolve_aa(aa, 1j), id="evolve_aa"),
        pytest.param(lambda aa, p: explicit_solution(aa, 1j, [0.0]),
                     id="explicit_solution"),
        pytest.param(lambda aa, p: h_lambda(aa, 1j), id="h_lambda"),
        pytest.param(lambda aa, p: profile_values(p, np.array([1j])),
                     id="profile_values"),
        pytest.param(lambda aa, p: GridField(0.0, 1.0, np.array([1j, 2.0])),
                     id="GridField"),
        pytest.param(lambda aa, p: GridField(1j, 1.0, [0.0, 1.0]),
                     id="GridField-x0"),
        pytest.param(lambda aa, p: GridField(0.0, 1j, [0.0, 1.0]),
                     id="GridField-dx"),
        # an int past the int64 range makes an object array, which
        # iscomplexobj reads as real: no bare TypeError, no NonFiniteInput
        # and no dropped imaginary part
        pytest.param(lambda aa, p: real_array([1j, 10 ** 400], "x"),
                     id="huge-int-after-complex"),
        pytest.param(lambda aa, p: real_array([10 ** 400, 1j], "x"),
                     id="huge-int-before-complex"),
        pytest.param(lambda aa, p: real_array([np.complex128(1j), 2 ** 70],
                                              "x"), id="huge-int-numpy-complex"),
        pytest.param(lambda aa, p: real_array([[1.0, 2 ** 70], [0.5j, 2.0]],
                                              "x"), id="huge-int-nested"),
    ])
    def test_complex_values_refused(self, call):
        with pytest.raises(DomainError, match="must be real, not complex"):
            call(self.aa, self.params)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda aa, p: h_lambda(aa, 10 ** 400), id="h_lambda"),
        pytest.param(lambda aa, p: evolve_aa(aa, 10 ** 400), id="evolve_aa"),
        pytest.param(lambda aa, p: ActionAngles([-10 ** 400], [0.0]),
                     id="ActionAngles"),
        pytest.param(lambda aa, p: profile_values(p, [10 ** 400]),
                     id="profile_values"),
        pytest.param(lambda aa, p: SolitonParameters((10 ** 400,)),
                     id="SolitonParameters"),
        pytest.param(lambda aa, p: SolitonParameters((-1j, 10 ** 400)),
                     id="SolitonParameters-second"),
        pytest.param(lambda aa, p: SolitonParameters.from_x_eta(
            [10 ** 400], [1.0]), id="from_x_eta"),
        pytest.param(lambda aa, p: GridField(10 ** 400, 1.0, [0.0, 1.0]),
                     id="GridField-x0"),
        pytest.param(lambda aa, p: GridField(0.0, 10 ** 400, [0.0, 1.0]),
                     id="GridField-dx"),
        # these four raised a bare OverflowError
        pytest.param(lambda aa, p: explicit_solution(aa, 0.0, 10 ** 400),
                     id="explicit_solution-x"),
        pytest.param(lambda aa, p: pi_u_resolvent(spectral_decompose(p),
                                                  10 ** 400),
                     id="pi_u_resolvent"),
        pytest.param(lambda aa, p: h_lambda_resolvent(p, 10 ** 400),
                     id="h_lambda_resolvent"),
        pytest.param(lambda aa, p: e_n_from_spectrum(aa, 10 ** 400),
                     id="e_n_from_spectrum"),
        # a bare ValueError from np.arange and a bare OverflowError
        pytest.param(lambda aa, p: profile(p, 0.0, 1.0, 10 ** 400),
                     id="profile-count"),
        pytest.param(lambda aa, p: torus_potential(p, 10 ** 400),
                     id="torus_potential"),
    ])
    def test_int_past_float_range_refused(self, call):
        # not a bare OverflowError from the float conversion
        with pytest.raises(NonFiniteInput, match="float range"):
            call(self.aa, self.params)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda aa, p: evolve_aa(aa, [0.0, 5.0]), id="evolve_aa"),
        # each soliton flowed to its own time
        pytest.param(lambda aa, p: explicit_solution(
            ActionAngles([-4.0, -2.0], [0.0, 1.0]), [0.0, 5.0], 0.5),
            id="explicit_solution"),
        pytest.param(lambda aa, p: h_lambda(aa, [1.0, 2.0]), id="h_lambda"),
        pytest.param(lambda aa, p: h_lambda_resolvent(p, [1.0, 2.0]),
                     id="h_lambda_resolvent"),
        pytest.param(lambda aa, p: GridField([0.0], 1.0, [1.0, 2.0]),
                     id="GridField-x0"),
        pytest.param(lambda aa, p: GridField(0.0, [1.0], [1.0, 2.0]),
                     id="GridField-dx"),
        pytest.param(lambda aa, p: profile(p, [0.0, 1.0], 0.1, 4),
                     id="profile-x0"),
        pytest.param(lambda aa, p: profile(p, 0.0, [0.1, 0.2], 4),
                     id="profile-dx"),
    ])
    def test_one_number_slots_refuse_arrays(self, call):
        with pytest.raises(DomainError, match="must be one number"):
            call(self.aa, self.params)

    @pytest.mark.parametrize("lam", [1 + 1j, "1"])
    def test_resolvent_shift_is_one_real_number(self, lam):
        # 1 + 1j lost its imaginary part; "1" raised a bare TypeError
        params = random_params(np.random.default_rng(1), 3)
        with pytest.raises(DomainError, match="lambda must be"):
            h_lambda_resolvent(params, lam)

    @pytest.mark.parametrize("values", [[1.0, None], ["1", 2.0], "a",
                                        [[1.0, 2.0], [3.0]]])
    def test_entries_that_are_not_numbers_refused(self, values):
        # None was read as NaN, and a string raised a bare ValueError
        with pytest.raises(DomainError, match="must (be numeric|not be)"):
            real_array(values, "x")

    def test_the_entry_that_is_not_a_number_is_named(self):
        # numpy reads the list as strings, whose first entry spells 1.0
        with pytest.raises(DomainError, match="not 'a'"):
            real_array([1.0, "a"], "x")

    @pytest.mark.parametrize("x", [None, "a"])
    def test_points_that_are_not_numbers_refused(self, x):
        # None ended in SingularResolvent, a numerical error
        with pytest.raises(DomainError, match="must be numeric"):
            explicit_solution(self.aa, 0.0, x)
        with pytest.raises(DomainError, match="must be numeric"):
            pi_u_resolvent(spectral_decompose(self.params), x)

    @pytest.mark.parametrize("n", [1.5, [1, 2], "1"])
    def test_non_integer_order_refused(self, n):
        # 1.5 raised NonFiniteInput("E_1.5 is not finite in doubles")
        with pytest.raises(DomainError, match="is not an integer"):
            e_n_from_spectrum(self.aa, n)

    def test_grid_spacing_stored_as_floats(self):
        field = GridField(-3, np.float32(0.5), [0.0, 1.0])
        assert type(field.x0) is float and type(field.dx) is float
        assert field.xs().tolist() == [-3.0, -2.5]

    @pytest.mark.parametrize("count", [256.0, 3.5, "256", None])
    def test_non_integer_sample_count_refused(self, count):
        with pytest.raises(DomainError, match="is not an integer"):
            torus_potential(self.params, count)
        with pytest.raises(DomainError, match="is not an integer"):
            profile(self.params, 0.0, 1.0, count)

    def test_numpy_integer_sample_count(self):
        assert torus_potential(self.params, np.int64(4)).values.size == 4
        assert profile(self.params, 0.0, 1.0, np.int32(3)).values.size == 3

    @pytest.mark.parametrize("call", [
        pytest.param(lambda p: profile(p, 0.0, 1.0, 10 ** 300), id="profile"),
        pytest.param(lambda p: torus_potential(p, 10 ** 300),
                     id="torus_potential"),
        pytest.param(lambda p: PdeConfig(modes=2 ** 1000), id="PdeConfig"),
    ])
    def test_count_past_what_numpy_can_size_refused(self, call):
        # numpy raised a bare ValueError, and PdeConfig took the modes
        with pytest.raises(DomainError, match="must be at most"):
            call(self.params)

    def test_records_keep_their_own_copy(self):
        rs, values = np.array([-2.0, -1.0]), np.array([0.0, 1.0])
        aa, field = ActionAngles(rs, [0.0, 0.0]), GridField(0.0, 1.0, values)
        poles = inverse_map(aa)
        rs[1], values[1] = 5.0, 7.0
        assert aa.rs.tolist() == [-2.0, -1.0]
        assert field.values.tolist() == [0.0, 1.0]
        assert inverse_map(aa) == poles


def test_u_rational_is_real_on_axis(rng):
    params = random_params(rng, 3)
    u = u_rational(params)
    for x in rng.uniform(-10, 10, 10):
        val = evaluate(u, x)
        assert abs(val.imag) < 1e-13
        assert val.real == pytest.approx(profile_values(params, x), abs=1e-12)
