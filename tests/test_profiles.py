import numpy as np
import pytest

from bo_soliton.action_angle import ActionAngles, evolve_aa, explicit_solution
from bo_soliton.errors import DegenerateParameters, DomainError, NonFiniteInput
from bo_soliton.invariants import h_lambda
from bo_soliton.oracle import pi_u, u_rational
from bo_soliton.profiles import (
    GridField,
    SolitonParameters,
    profile,
    profile_values,
    real_array,
    torus_potential,
)
from bo_soliton.rational import evaluate
from conftest import random_params


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
    """A complex value where a real is required, or a sample count that is
    not an integer, is a DomainError: no imaginary part is dropped, and no
    bare TypeError escapes."""

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
    ])
    def test_int_past_float_range_refused(self, call):
        # not a bare OverflowError from the float conversion
        with pytest.raises(NonFiniteInput, match="float range"):
            call(self.aa, self.params)

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


def test_u_rational_is_real_on_axis(rng):
    params = random_params(rng, 3)
    u = u_rational(params)
    for x in rng.uniform(-10, 10, 10):
        val = evaluate(u, x)
        assert abs(val.imag) < 1e-13
        assert val.real == pytest.approx(profile_values(params, x), abs=1e-12)
