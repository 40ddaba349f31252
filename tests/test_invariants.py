import dataclasses
import itertools

import numpy as np
import pytest
import scipy.integrate

from bo_soliton import invariants
from bo_soliton.action_angle import ActionAngles, evolve_aa
from bo_soliton.errors import (
    BoundaryNotDecayed,
    DegenerateParameters,
    DomainError,
    NonFiniteInput,
    PoleProximity,
)
from bo_soliton.invariants import (
    e1_quadrature,
    e_n_from_spectrum,
    h_lambda,
    omega_matrix,
    poisson_bracket_table,
    symplectomorphism_check,
)
from bo_soliton.oracle import h_lambda_resolvent
from bo_soliton.profiles import GridField, SolitonParameters, profile
from bo_soliton.spectral import spectral_decompose
from bo_soliton.validation import (
    bracket_defect,
    energy_defect,
    h_lambda_defect,
)
from conftest import random_params
from polecalc import inner_product, pi_u


def tangent_hat(kind, x0, eta):
    """Fourier transform on xi > 0 of du/deta (kind 'f') or du/dx (kind 'g')."""
    if kind == "f":
        return lambda xi: -2 * np.pi * xi * np.exp(-(1j * x0 + eta) * xi)
    return lambda xi: -2j * np.pi * xi * np.exp(-(1j * x0 + eta) * xi)


def omega_pair_quadrature(k1, z1, k2, z2):
    """Direct xi-integral oracle for the symplectic pairing."""
    h1 = tangent_hat(k1, z1.real, -z1.imag)
    h2 = tangent_hat(k2, z2.real, -z2.imag)

    def integrand(xi):
        return np.imag(h1(xi) * np.conj(h2(xi))) / xi

    val, _ = scipy.integrate.quad(integrand, 0, np.inf, epsabs=1e-12,
                                  epsrel=1e-12)
    return -val / np.pi


def omega_w_form(params):
    """Omega from the closed forms in 1/w**2, w = (eta_j + eta_k)
    + i(x_j - x_k), built here apart from the Cauchy kernel."""
    xs, etas = params.positions, params.etas
    inv_w2 = 1 / ((etas[:, None] + etas) + 1j * (xs[:, None] - xs)) ** 2
    ff, fg = -4 * np.pi * inv_w2.imag, 4 * np.pi * inv_w2.real
    omega = np.empty((2 * params.n, 2 * params.n))
    omega[0::2, 0::2] = omega[1::2, 1::2] = ff
    omega[0::2, 1::2] = -fg.T
    omega[1::2, 0::2] = fg
    return omega


# second position and the two etas of a two-soliton grid, the first at x = 0:
# 6 * 12 * 12 = 864 inputs at and past the edges of the float range
X2_GRID = [0.0, 1.0, 1e100, 1e154, 1e200, 1e300]
ETA_GRID = [1e-320, 1e-200, 1e-160, 1e-154, 1e-150, 1e-5, 1.0, 1e150, 1e154,
            1e155, 1e200, 1e300]


class TestOmegaMatrix:
    def test_matches_w_form(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            params = random_params(rng, int(rng.integers(1, 9)))
            omega = omega_matrix(params)
            assert (np.abs(omega - omega_w_form(params)).max()
                    <= 1e-15 * np.abs(omega).max())

    def test_extreme_grid_is_finite_or_refused(self):
        # a RuntimeWarning fails this test, as everywhere in the suite
        returned = 0
        for x2, eta1, eta2 in itertools.product(X2_GRID, ETA_GRID, ETA_GRID):
            try:
                params = SolitonParameters.from_x_eta([0.0, x2], [eta1, eta2])
            except DegenerateParameters:
                continue
            try:
                omega = omega_matrix(params)
            except NonFiniteInput:
                continue
            assert np.isfinite(omega).all(), (x2, eta1, eta2)
            with np.errstate(all="ignore"):
                ref = omega_w_form(params)
            # where w**2 overflows, the w-form is NaN and its limit 0
            ref[~np.isfinite(ref)] = 0.0
            assert np.abs(omega - ref).max() <= 1e-15 * np.abs(omega).max()
            returned += 1
        assert returned > 0

    @pytest.mark.parametrize("zs", [
        pytest.param((-1e-154j,), id="4pi-overflow"),  # once +-inf
        pytest.param((-1e154j,), id="subnormal-diagonal"),
        pytest.param((-1e-320j,), id="kernel-overflow"),
        pytest.param((-1j, 1e300 - 1e-154j), id="two-solitons"),
    ])
    def test_past_the_float_range_refused(self, zs):
        with pytest.raises(NonFiniteInput):
            omega_matrix(SolitonParameters(zs))

    def test_closed_forms_match_quadrature(self, rng):
        # the closed forms in w = (eta_j + eta_k) + i(x_j - x_k) must agree
        # with numerical xi-integration before anything downstream trusts them
        params = random_params(rng, 3)
        omega = omega_matrix(params)
        kinds = []
        for z in params.zs:
            kinds.append(("g", z))
            kinds.append(("f", z))
        for a in range(6):
            for b in range(6):
                direct = omega_pair_quadrature(*kinds[a], *kinds[b])
                assert omega[a, b] == pytest.approx(direct, abs=1e-8)

    def test_unit_soliton_block(self):
        omega = omega_matrix(SolitonParameters((-1j,)))
        # theta = (x1, eta1): omega(g, f) = -pi/eta^2, omega(f, g) = +pi/eta^2
        assert omega[0, 1] == pytest.approx(-np.pi, rel=1e-14)
        assert omega[1, 0] == pytest.approx(np.pi, rel=1e-14)
        assert omega[0, 0] == omega[1, 1] == 0

    def test_aligned_centers_decouple(self):
        params = SolitonParameters((-1j, -2j))
        omega = omega_matrix(params)
        # x_j = x_k makes w real, so the f-f and g-g pairings vanish
        assert abs(omega[1, 3]) < 1e-14
        assert abs(omega[0, 2]) < 1e-14

    def test_antisymmetric(self, rng):
        omega = omega_matrix(random_params(rng, 4))
        assert np.abs(omega + omega.T).max() < 1e-12


class TestSymplectomorphism:
    def test_unit_soliton(self):
        defect = symplectomorphism_check(SolitonParameters((-1j,)))
        assert defect < 1e-6

    def test_random_three(self, rng):
        defect = symplectomorphism_check(random_params(rng, 3))
        assert defect < 1e-4

    def test_second_order_in_step(self, rng, monkeypatch):
        params = random_params(rng, 2)
        monkeypatch.setattr(invariants, "FD_STEP", 2e-3)
        d1 = symplectomorphism_check(params)
        monkeypatch.setattr(invariants, "FD_STEP", 1e-3)
        d2 = symplectomorphism_check(params)
        assert 2.0 < d1 / d2 < 8.0


class TestPoissonTable:
    def test_unit_soliton_bracket(self):
        table = poisson_bracket_table(SolitonParameters((-1j,)))
        assert table[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_canonical_pattern(self, rng):
        assert bracket_defect(random_params(rng, 3)) < 1e-4


class TestConservedQuantities:
    def test_mass_equals_hardy_norm(self, rng):
        params = random_params(rng, 3)
        sd = spectral_decompose(params)
        f = pi_u(params)
        assert e_n_from_spectrum(sd, 0) == pytest.approx(
            inner_product(f, f).real, rel=1e-11)

    def test_unit_soliton_energy(self):
        sd = spectral_decompose(SolitonParameters((-1j,)))
        assert e_n_from_spectrum(sd, 1) == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_invariant_under_flow(self, rng):
        lam = np.array([-2.0, -0.5])
        aa = ActionAngles(2 * np.pi * lam, np.zeros(2))
        for n in range(4):
            before = e_n_from_spectrum(aa, n)
            after = e_n_from_spectrum(evolve_aa(aa, 7.3), n)
            assert before == after  # actions are untouched bitwise


class TestE1Quadrature:
    def test_unit_soliton(self):
        g = profile(SolitonParameters((-1j,)), -2000, 4000 / 2 ** 18, 2 ** 18)
        assert e1_quadrature(g) == pytest.approx(-np.pi / 2, abs=1e-4)

    def test_speed_two(self):
        g = profile(SolitonParameters((-0.5j,)), -2000, 4000 / 2 ** 18, 2 ** 18)
        assert e1_quadrature(g) == pytest.approx(-2 * np.pi, abs=1e-3)

    def test_matches_spectrum(self, rng):
        params = random_params(rng, 2)
        sd = spectral_decompose(params)
        g = profile(params, -1e4, 2e4 / 2 ** 19, 2 ** 19)
        assert e1_quadrature(g) == pytest.approx(
            e_n_from_spectrum(sd, 1), rel=1e-4)

    @pytest.mark.parametrize("kind", ["soliton", "random_even", "random_odd"])
    def test_half_spectrum_matches_full_fft(self, kind, rng):
        if kind == "soliton":
            g = profile(SolitonParameters((-3.0 - 1j, 4.0 - 0.5j)),
                        -2000, 4000 / 2 ** 14, 2 ** 14)
        else:
            n = 4096 if kind == "random_even" else 4095
            g = GridField(0.0, 0.05, rng.standard_normal(n))
        u, dx, n = g.values, g.dx, g.values.size
        k = 2 * np.pi * np.fft.fftfreq(n, d=dx)
        quad = (dx / (2 * n)) * np.sum(np.abs(k) * np.abs(np.fft.fft(u)) ** 2)
        expected = quad - np.sum(u ** 3) * dx / 3.0
        assert e1_quadrature(g, periodic=True) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("values, energy", [
        ([0.0, 0.0], 0.0),
        # mode 1 of u = (0, 1e-7, 0): (pi / 3^2) * 2 |uhat_1|^2
        ([0.0, 1e-7, 0.0], 2e-14 * np.pi / 9),
    ], ids=["zero", "one-mode"])
    def test_subnormal_spacing(self, values, energy):
        # 1/(n dx) overflows at a subnormal dx, so the energy must not form
        # the wave numbers
        g = GridField(1e300, 2.2250738585e-313, values)
        assert e1_quadrature(g) == pytest.approx(energy, rel=1e-12, abs=1e-300)

    def test_boundary_guard(self):
        g = profile(SolitonParameters((-1j,)), -5, 0.1, 101)
        with pytest.raises(BoundaryNotDecayed):
            e1_quadrature(g)

    @pytest.mark.parametrize("periodic", ["no", None, 1, 0.0, [True]],
                             ids=["string", "none", "int", "float", "list"])
    def test_periodic_is_a_flag(self, periodic):
        # "no" was true, so the line profile got the periodic energy
        g = profile(SolitonParameters((-1j,)), -50.0, 1.0, 101)
        assert e1_quadrature(g, periodic=np.True_) == e1_quadrature(
            g, periodic=True)
        with pytest.raises(DomainError, match="periodic must be a bool"):
            e1_quadrature(g, periodic=periodic)


class TestEnergyDefect:
    """validate's energy_dual: E_1 from the spectrum against its closed
    form over the Cauchy kernel of the poles."""

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32, 48, 64])
    def test_random_draws(self, n):
        rng = np.random.default_rng(42)
        for _ in range(3):
            params = random_params(rng, n)
            assert energy_defect(params, spectral_decompose(params)) <= 1e-13

    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
    def test_one_soliton(self, eta):
        params = SolitonParameters((complex(0.3, -eta),))
        assert energy_defect(params, spectral_decompose(params)) <= 1e-15

    def test_broad_solitons(self):
        # sum eta = 90: the 1/x^2 tails reach far, but the closed form
        # reads the poles and samples no grid
        params = random_params(np.random.default_rng(1), 32)
        assert energy_defect(params, spectral_decompose(params)) <= 1e-4

    def test_perturbed_spectrum_detected(self, rng):
        params = random_params(rng, 5)
        sd = spectral_decompose(params)
        wrong = dataclasses.replace(sd, lambdas=sd.lambdas * (1 + 1e-8))
        assert energy_defect(params, wrong) >= 1e-9


class TestHLambda:
    def test_unit_soliton(self):
        sd = spectral_decompose(SolitonParameters((-1j,)))
        assert h_lambda(sd, 1.0) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_large_lambda_asymptotics(self, rng):
        params = random_params(rng, 3)
        sd = spectral_decompose(params)
        lam = 1e8
        mass = e_n_from_spectrum(sd, 0)
        assert lam * h_lambda(sd, lam) == pytest.approx(mass, rel=1e-6)

    def test_resolvent_route_agrees(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            params = random_params(rng, n)
            sd = spectral_decompose(params)
            lam = float(rng.uniform(0.3, 20.0))
            if np.min(np.abs(lam + sd.lambdas)) < 1e-3:
                continue
            a = h_lambda(sd, lam)
            b = h_lambda_resolvent(params, lam)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            h_lambda(spectral_decompose(SolitonParameters((-1j,))), 0.5 + 1e-10)

    def test_defect_skips_a_probe_on_a_pole(self, rng):
        # h_lambda raises PoleProximity at -lambda_j; the defect skips it
        params = random_params(rng, 3)
        sd = spectral_decompose(params)
        assert h_lambda_defect(params, sd, [-sd.lambdas[0]]) == 0.0

    def test_invariant_under_flow(self):
        aa = ActionAngles(np.array([-4.0, -1.0]), np.array([0.3, -0.2]))
        for lam in (0.9, 2.7, 11.0):
            before = h_lambda(aa, lam)
            after = h_lambda(evolve_aa(aa, -3.1), lam)
            assert before == after
