import numpy as np
import pytest

from bo_soliton.errors import DegenerateParameters, DomainError, NonFiniteInput
from bo_soliton.profiles import (
    GridField,
    MonicPolynomial,
    SolitonParameters,
    char_poly,
    one_minus_theta,
    pi_u,
    poly_roots,
    profile,
    profile_values,
    torus_potential,
    u_rational,
    viete_coeffs,
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

    def test_canonical_order(self):
        p = SolitonParameters((2 - 1j, -1 - 2j))
        assert p.zs == (-1 - 2j, 2 - 1j)


class TestViete:
    def test_single_root(self):
        q = viete_coeffs([-1j])
        assert q.low_coeffs == (1j,)

    def test_double_root(self):
        q = viete_coeffs([-1j, -1j])
        assert np.allclose(q.low_coeffs, (-1.0, 2j))

    def test_symmetric_pair(self):
        q = viete_coeffs([1 - 1j, -1 - 1j])
        assert np.allclose(q.low_coeffs, (-2.0, 2j))

    def test_order_independent(self, rng):
        roots = [complex(rng.uniform(-3, 3), rng.uniform(-3, -0.1))
                 for _ in range(6)]
        a = viete_coeffs(roots)
        b = viete_coeffs(list(reversed(roots)))
        assert a.low_coeffs == b.low_coeffs


class TestPolyRoots:
    def test_linear(self):
        assert np.allclose(poly_roots(MonicPolynomial((1j,))), [-1j])

    def test_quadratic(self):
        roots = sorted(poly_roots(MonicPolynomial((1.0, 0.0))),
                       key=lambda z: z.imag)
        assert np.allclose(roots, [-1j, 1j])

    def test_roundtrip(self, rng):
        for n in (2, 5, 8, 12):
            roots = sorted(
                (complex(rng.uniform(-10, 10), rng.uniform(-10, -0.05))
                 for _ in range(n)), key=lambda z: (z.real, z.imag))
            rec = sorted(poly_roots(viete_coeffs(roots)),
                         key=lambda z: (z.real, z.imag))
            assert np.abs(np.array(rec) - np.array(roots)).max() < 1e-9


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


class TestOneMinusTheta:
    def test_one_soliton(self):
        f = one_minus_theta(SolitonParameters((-1j,)))
        assert f.terms == ((-1j, 1, 2j),)

    def test_decay(self, rng):
        params = random_params(rng, 4)
        bound = 3e-6 * sum(2 * abs(z.imag) for z in params.zs)
        assert abs(evaluate(one_minus_theta(params), 1e6)) < bound

    def test_theta_unimodular_on_axis(self, rng):
        params = random_params(rng, 4)
        f = one_minus_theta(params)
        for x in rng.uniform(-20, 20, 20):
            assert abs(abs(1 - evaluate(f, x)) - 1.0) < 1e-10

    def test_matches_polynomial_ratio(self, rng):
        params = random_params(rng, 3)
        q = char_poly(params)
        qbar = np.conj(q.coeffs_desc())
        f = one_minus_theta(params)
        for x in rng.uniform(-5, 5, 10):
            direct = 1 - np.polyval(qbar, x) / np.polyval(q.coeffs_desc(), x)
            assert abs(evaluate(f, x) - direct) < 1e-12


class TestTorusPotential:
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


class TestGridField:
    def test_xs(self):
        g = GridField(-1.0, 0.5, np.zeros(5))
        assert np.allclose(g.xs(), [-1, -0.5, 0, 0.5, 1])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            GridField(0.0, 1.0, np.array([0.0, np.nan]))


def test_u_rational_is_real_on_axis(rng):
    params = random_params(rng, 3)
    u = u_rational(params)
    for x in rng.uniform(-10, 10, 10):
        val = evaluate(u, x)
        assert abs(val.imag) < 1e-13
        assert val.real == pytest.approx(profile_values(params, x), abs=1e-12)
