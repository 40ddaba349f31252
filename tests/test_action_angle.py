import logging
import warnings

import numpy as np
import pytest

from bo_soliton import action_angle
from bo_soliton.action_angle import (
    ActionAngles,
    aa_from_spectral,
    evolve_aa,
    explicit_solution,
    forward_map,
    inverse_map,
    m_from_aa,
    pi_u_resolvent,
)
from bo_soliton.errors import (
    EigensolveFailed,
    NonFiniteInput,
    OrderingViolation,
    RootsNotInLowerHalfPlane,
    SingularResolvent,
)
from bo_soliton.profiles import SolitonParameters, pi_u, profile_values
from bo_soliton.rational import evaluate
from bo_soliton.spectral import spectral_decompose
from conftest import random_params


def unit_aa(alpha=0.0):
    return ActionAngles(np.array([-np.pi]), np.array([alpha]))


def random_aa(rng, n):
    lam = -np.sort(rng.uniform(0.1, 3.0, n))[::-1]
    while n > 1 and np.min(np.diff(lam)) < 0.1:
        lam = -np.sort(rng.uniform(0.1, 3.0, n))[::-1]
    return ActionAngles(2 * np.pi * lam, rng.uniform(-5, 5, n))


class TestMFromAA:
    def test_unit_soliton(self):
        m = m_from_aa(unit_aa())
        assert abs(m[0, 0] - (-1j)) < 1e-15

    def test_angle_shifts_diagonal(self):
        m = m_from_aa(unit_aa(3.0))
        assert abs(m[0, 0] - (3.0 - 1j)) < 1e-15

    def test_im_m_negative_semidefinite(self, rng):
        for n in (2, 4, 6):
            m = m_from_aa(random_aa(rng, n))
            im_m = (m - m.conj().T) / 2j
            assert np.linalg.eigvalsh(im_m).max() < 1e-12

    def test_ordering_enforced(self):
        with pytest.raises(OrderingViolation):
            ActionAngles(np.array([-1.0, -2.0]), np.zeros(2))
        with pytest.raises(OrderingViolation):
            ActionAngles(np.array([-1.0, 1.0]), np.zeros(2))

    @pytest.mark.parametrize("rs, alphas", [
        ([np.nan], [0.0]),
        ([-np.inf, -1.0], [0.0, 0.0]),
        ([-2.0, -1.0], [0.0, np.inf]),
    ])
    def test_non_finite_rejected(self, rs, alphas):
        with pytest.raises(NonFiniteInput):
            ActionAngles(np.array(rs), np.array(alphas))


class TestInverseMap:
    def test_unit_soliton(self):
        params = inverse_map(unit_aa())
        assert abs(params.zs[0] - (-1j)) < 1e-12

    def test_eigensolve_info(self, monkeypatch):
        solve = action_angle.zgeev
        monkeypatch.setattr(action_angle, "zgeev",
                            lambda *a, **k: (*solve(*a, **k)[:3], 1))
        with pytest.raises(EigensolveFailed, match="zgeev info 1"):
            inverse_map(unit_aa())

    def test_nan_root_refused(self, monkeypatch):
        solve = action_angle.zgeev
        monkeypatch.setattr(
            action_angle, "zgeev",
            lambda *a, **k: (np.array([np.nan + 0j]), *solve(*a, **k)[1:]))
        with pytest.raises(RootsNotInLowerHalfPlane):
            inverse_map(unit_aa())

    def test_scaled_shifted(self):
        for x0, c in ((0.0, 1.0), (3.0, 0.5), (-2.0, 4.0)):
            aa = ActionAngles(np.array([-c * np.pi]), np.array([x0]))
            params = inverse_map(aa)
            assert abs(params.zs[0] - (x0 - 1j / c)) < 1e-12

    def test_roundtrip_from_actions(self, rng):
        # spectral_decompose after inverse_map returns the same coordinates
        for trial in range(100):
            n = 1 + trial % 8
            aa = random_aa(rng, n)
            params = inverse_map(aa)
            back = aa_from_spectral(spectral_decompose(params))
            assert np.abs(back.rs - aa.rs).max() < 1e-7
            assert np.abs(back.alphas - aa.alphas).max() < 1e-7


class TestEvolve:
    def test_identity_at_zero(self, rng):
        aa = random_aa(rng, 3)
        out = evolve_aa(aa, 0.0)
        assert np.array_equal(out.rs, aa.rs)
        assert np.array_equal(out.alphas, aa.alphas)

    def test_unit_speed(self):
        out = evolve_aa(unit_aa(), 5.0)
        assert out.alphas[0] == pytest.approx(5.0, abs=1e-14)

    def test_flow_composition(self, rng):
        aa = random_aa(rng, 4)
        s, t = 0.7, -2.3
        a = evolve_aa(evolve_aa(aa, s), t)
        b = evolve_aa(aa, s + t)
        assert np.array_equal(a.rs, b.rs)
        assert np.abs(a.alphas - b.alphas).max() < 1e-13 * (1 + np.abs(b.alphas).max())


class TestExplicitSolution:
    def test_traveling_wave(self):
        aa = unit_aa()
        for t in (0.0, 1.5, 5.0):
            xs = np.linspace(-20, 20, 81)
            u = explicit_solution(aa, t, xs)
            assert np.abs(u - 2.0 / ((xs - t) ** 2 + 1)).max() < 1e-13

    def test_matches_profile_at_zero(self, rng):
        params = random_params(rng, 4)
        aa = forward_map(params)
        xs = np.linspace(-20, 20, 201)
        u = explicit_solution(aa, 0.0, xs)
        assert np.abs(u - profile_values(params, xs)).max() < 1e-10

    def test_two_path_consistency(self, rng):
        # evolving coordinates then synthesizing equals the resolvent formula
        for n in (2, 4, 6):
            params = random_params(rng, n)
            aa = forward_map(params)
            xs = np.linspace(-50, 50, 501)
            for t in (0.1, 1.0, 10.0):
                u1 = explicit_solution(aa, t, xs)
                u2 = profile_values(inverse_map(evolve_aa(aa, t)), xs)
                assert np.abs(u1 - u2).max() < 1e-9

    def test_two_path_consistency_large_n(self, rng):
        # The Schur back substitution shares the eigenvalues' rounding with
        # inverse_map; per-point LU solves read 4.8e-12 on these draws.
        for n in (8, 12, 16):
            params = random_params(rng, n)
            aa = forward_map(params)
            xs = np.linspace(-50, 50, 501)
            for t in (0.1, 1.0, 10.0):
                u1 = explicit_solution(aa, t, xs)
                u2 = profile_values(inverse_map(evolve_aa(aa, t)), xs)
                assert np.abs(u1 - u2).max() < 2e-12

    def test_output_shapes(self, rng):
        aa = forward_map(random_params(rng, 3))
        xs = np.linspace(-10, 10, 12)
        flat = explicit_solution(aa, 2.0, xs)
        grid = explicit_solution(aa, 2.0, xs.reshape(3, 4))
        assert grid.shape == (3, 4)
        assert np.array_equal(grid.ravel(), flat)
        scalar = explicit_solution(aa, 2.0, 1.5)
        assert type(scalar) is float
        assert scalar == explicit_solution(aa, 2.0, np.array([1.5]))[0]
        assert explicit_solution(aa, 2.0, np.empty(0)).shape == (0,)

    def test_debug_log_line(self, caplog):
        xs = np.linspace(-5, 5, 40)
        with caplog.at_level(logging.DEBUG, logger="bo_soliton.action_angle"):
            explicit_solution(unit_aa(), 1.0, xs)
        (rec,) = [r for r in caplog.records
                  if r.name == "bo_soliton.action_angle"]
        msg = rec.getMessage()
        assert msg.startswith(
            "explicit_solution: N=1, 40 points, schur residual ")
        assert float(msg.split("schur residual ")[1].split(",")[0]) < 1e-14
        assert msg.endswith(" s")


class TestPiUResolvent:
    def test_unit_soliton_algebra(self):
        sd = spectral_decompose(SolitonParameters((-1j,)))
        for x in (-3.0, 0.0, 2.5):
            assert abs(pi_u_resolvent(sd, x) - 1j / (x + 1j)) < 1e-13

    def test_matches_pi_u(self, rng):
        params = random_params(rng, 5)
        sd = spectral_decompose(params)
        f = pi_u(params)
        for x in rng.uniform(-50, 50, 50):
            assert abs(pi_u_resolvent(sd, x) - evaluate(f, x)) < 1e-9

    def test_decay(self, rng):
        params = random_params(rng, 3)
        sd = spectral_decompose(params)
        lam = np.abs(sd.lambdas)
        bound = 1.1 * np.sum(np.sqrt(lam)) * np.sum(1 / np.sqrt(lam))
        for x in (1e6, -1e6):
            assert abs(pi_u_resolvent(sd, x)) <= bound / abs(x)

    def test_scalar_is_complex(self):
        sd = spectral_decompose(SolitonParameters((-1j,)))
        assert type(pi_u_resolvent(sd, 0.5)) is complex
        assert pi_u_resolvent(sd, np.zeros((2, 3))).shape == (2, 3)

    def _assert_refused(self, sd, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularResolvent):
                pi_u_resolvent(sd, z)

    def test_pole_of_unit_soliton_refused(self):
        self._assert_refused(spectral_decompose(SolitonParameters((-1j,))),
                             -1j)

    def test_computed_eigenvalues_refused(self, rng):
        sd = spectral_decompose(random_params(rng, 2))
        for z in np.linalg.eigvals(sd.m_matrix):
            self._assert_refused(sd, z)
            # a shift one part in 1e8 away is a regular point
            near = pi_u_resolvent(sd, z + 1e-8 * np.abs(sd.m_matrix).max())
            assert np.isfinite(near)
