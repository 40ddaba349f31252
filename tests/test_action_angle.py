import logging
import warnings

import numpy as np
import pytest

from bo_soliton import _lapack
from bo_soliton.action_angle import (
    ActionAngles,
    _block_points,
    aa_from_spectral,
    evolve_aa,
    explicit_solution,
    forward_map,
    inverse_map,
    m_from_aa,
    pi_u_resolvent,
)
from bo_soliton.errors import (
    DomainError,
    EigensolveFailed,
    NonFiniteInput,
    OrderingViolation,
    RootsNotInLowerHalfPlane,
    SingularResolvent,
)
from bo_soliton.oracle import pi_u
from bo_soliton.profiles import SolitonParameters, profile_values
from bo_soliton.rational import evaluate
from bo_soliton.spectral import spectral_decompose
from bo_soliton.validation import im_m_top
from conftest import random_params


def unit_aa(alpha=0.0):
    return ActionAngles(np.array([-np.pi]), np.array([alpha]))


def random_aa(rng, n):
    lam = -np.sort(rng.uniform(0.1, 3.0, n))[::-1]
    while n > 1 and np.min(np.diff(lam)) < 0.1:
        lam = -np.sort(rng.uniform(0.1, 3.0, n))[::-1]
    return ActionAngles(2 * np.pi * lam, rng.uniform(-5, 5, n))


def whole_pairing(m, lambdas, shift):
    """The resolvent pairing with one block of all shifts: the back
    substitution as it ran before it was cut into blocks of points."""
    tri, _, _, q, _, _ = _lapack.zgees(lambda e: None, m)
    x = np.sqrt(np.abs(lambdas))
    s = np.asarray(shift).ravel()
    gaps = np.diagonal(tri)[:, None] - s
    b = q.conj().T @ x
    w = np.empty(gaps.shape, dtype=complex)
    for k in range(lambdas.size - 1, -1, -1):
        w[k] = (b[k] - tri[k, k + 1:] @ w[k + 1:]) / gaps[k]
    return (((1.0 / x) @ q) @ w).reshape(np.shape(shift))


def agrees(got, want):
    """Same shape, and within 1e-14 of the largest magnitude of ``want``:
    the blocks change the summation order of BLAS, so the last bits may."""
    bound = 1e-14 * np.max(np.abs(want), initial=0.0)
    return (np.shape(got) == np.shape(want)
            and bool(np.all(np.abs(np.subtract(got, want)) <= bound)))


def test_blocking_is_invisible():
    # N in {1, 2, 8, 33}; 0 points, a scalar, B - 1, B, B + 1 and 3 B + 7
    # points for B = _block_points(N); and a (2, 3) complex input
    rng = np.random.default_rng(23)
    bad = []
    for n in (1, 2, 8, 33):
        sd = spectral_decompose(SolitonParameters(tuple(
            6.0 * np.arange(n) - 1j * rng.uniform(0.5, 1.5, n))))
        aa, block = aa_from_spectral(sd), _block_points(n)
        m_t = m_from_aa(evolve_aa(aa, 1.0))
        grids = [np.linspace(-20, 6 * n + 20, count)
                 for count in (0, block - 1, block, block + 1, 3 * block + 7)]
        for xs in [grids[0], 0.5, *grids[1:]]:
            u = explicit_solution(aa, 1.0, xs)
            if not agrees(u, 2 * whole_pairing(m_t, aa.lambdas, xs).imag):
                bad.append(f"explicit_solution N={n} shape={np.shape(xs)}")
        for zs in [*grids, 0.5 + 0.5j, rng.normal(size=(2, 3)) * (1 + 1j)]:
            zs = np.add(zs, 0.5j)
            p = pi_u_resolvent(sd, zs)
            if not agrees(p, -1j * whole_pairing(sd.m_matrix, sd.lambdas,
                                                 zs)):
                bad.append(f"pi_u_resolvent N={n} shape={np.shape(zs)}")
    assert bad == []


class TestMFromAA:
    def test_unit_soliton(self):
        m = m_from_aa(unit_aa())
        assert abs(m[0, 0] - (-1j)) < 1e-15

    def test_angle_shifts_diagonal(self):
        m = m_from_aa(unit_aa(3.0))
        assert abs(m[0, 0] - (3.0 - 1j)) < 1e-15

    def test_im_m_negative_semidefinite(self, rng):
        for n in (2, 4, 6):
            assert im_m_top(m_from_aa(random_aa(rng, n))) < 1e-12

    def test_ordering_enforced(self):
        with pytest.raises(OrderingViolation):
            ActionAngles(np.array([-1.0, -2.0]), np.zeros(2))
        with pytest.raises(OrderingViolation):
            ActionAngles(np.array([-1.0, 1.0]), np.zeros(2))

    @pytest.mark.parametrize("rs, alphas", [
        ([[-2.0, -1.0]], [[0.0, 0.0]]),
        (-1.0, 0.0),
        ([-2.0, -1.0], [[0.0, 0.0]]),
        ([[-2.0], [-1.0]], [0.0, 0.0]),
    ])
    def test_one_dimensional_lists_required(self, rs, alphas):
        with pytest.raises(OrderingViolation, match="1-D"):
            ActionAngles(np.array(rs), np.array(alphas))

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
        solve = _lapack.zgeev
        monkeypatch.setattr(_lapack, "zgeev",
                            lambda *a, **k: (*solve(*a, **k)[:3], 1))
        with pytest.raises(EigensolveFailed, match="zgeev info 1"):
            inverse_map(unit_aa())

    @pytest.mark.parametrize("rs", [[-1e-320], [-3.0, -1e-320]])
    def test_overflowing_m_is_non_finite_input(self, rs):
        # M's diagonal -pi/r_j overflows; numpy's warnings are errors here
        with pytest.raises(NonFiniteInput, match="M has a non-finite entry"):
            inverse_map(ActionAngles(np.array(rs), np.zeros(len(rs))))

    def test_nan_root_refused(self, monkeypatch):
        solve = _lapack.zgeev
        monkeypatch.setattr(
            _lapack, "zgeev",
            lambda *a, **k: (np.array([np.nan + 0j]), *solve(*a, **k)[1:]))
        with pytest.raises(RootsNotInLowerHalfPlane):
            inverse_map(unit_aa())

    def test_roots_message_is_one_line(self, monkeypatch):
        # twelve roots, one above the axis: the message names that root
        # alone, where numpy would wrap the whole array onto a second line
        aa = ActionAngles(-np.pi * np.arange(12, 0, -1.0), np.zeros(12))
        solve = _lapack.zgeev

        def lifted(*args, **kwargs):
            roots, *rest = solve(*args, **kwargs)
            roots[5] = 3 + 0.5j
            return (roots, *rest)

        monkeypatch.setattr(_lapack, "zgeev", lifted)
        with pytest.raises(RootsNotInLowerHalfPlane) as info:
            inverse_map(aa)
        assert str(info.value) == ("spectrum of M left the lower half-plane: "
                                   "root 5 is (3+0.5j)")

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

    def test_field_roundtrip_up_to_n64(self):
        # past N ~ 16 the poles of inverse_map(Phi(z)) lose digits, while the
        # field they build stays exact: worst 4.7e-14 of max u on these
        # draws, and a kick of 1e-8 to alpha_1 moves it by at least 1.3e-9
        rng = np.random.default_rng(42)
        for n in (8, 16, 32, 48, 64):
            for _ in range(10):
                params = random_params(rng, n)
                x = params.positions
                xs = np.linspace(x.min() - 60, x.max() + 60, 4001)
                u = profile_values(params, xs)

                def defect(aa):
                    back = profile_values(inverse_map(aa), xs)
                    return np.abs(back - u).max() / u.max()

                aa = forward_map(params)
                assert defect(aa) <= 1e-12
                kicked = aa.alphas.copy()
                kicked[0] += 1e-8
                assert defect(ActionAngles(aa.rs, kicked)) >= 1e-10


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

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_refused(self, t):
        # M(t) is M of evolve_aa(aa0, t), whose angles are then not finite
        with pytest.raises(NonFiniteInput):
            explicit_solution(unit_aa(), t, np.linspace(-5, 5, 11))

    @pytest.mark.parametrize("rs", [[-1e-320], [-3.0, -1e-320]])
    def test_overflowing_m_is_non_finite_input(self, rs):
        aa = ActionAngles(np.array(rs), np.zeros(len(rs)))
        with pytest.raises(NonFiniteInput, match="M has a non-finite entry"):
            explicit_solution(aa, 0.0, np.linspace(-1, 1, 3))

    @pytest.mark.parametrize("x", [0.5 + 1j, np.array([0.0, 1.0 + 0j])])
    def test_complex_points_refused(self, x):
        # the imaginary part was dropped with only a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="pi_u_resolvent"):
                explicit_solution(unit_aa(), 0.0, x)

    def test_nan_point_in_a_later_block_refused(self):
        xs = np.linspace(-50, 50, 3 * _block_points(1))
        xs[2 * _block_points(1) + 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularResolvent, match="non-finite"):
                explicit_solution(unit_aa(), 0.0, xs)

    def test_eigenvalue_near_the_axis_takes_the_per_block_test(self):
        # one eigenvalue of M lies 1e-10 below the real axis, inside the
        # tolerance SINGULAR_RTOL * max|T| = 1e-9, so the half-plane bound
        # fails and the per-block modulus test decides every point
        aa = ActionAngles([-2 * np.pi * 5e9, -np.pi], [0.0, 1000.0])
        xs = np.array([500.0, 999.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularResolvent, match="shift within"):
                explicit_solution(aa, 0.0, [0.0])
            u = explicit_solution(aa, 0.0, xs)
        ref = profile_values(inverse_map(aa), xs)
        assert np.abs(u - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_schur_info(self, monkeypatch):
        solve = _lapack.zgees
        monkeypatch.setattr(_lapack, "zgees",
                            lambda *a, **k: (*solve(*a, **k)[:5], 1))
        with pytest.raises(EigensolveFailed, match="zgees info 1"):
            explicit_solution(unit_aa(), 0.0, 0.5)

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

    def test_one_pairing_for_both_callers(self, rng):
        # u = 2 Re Pi u: M from m_formula on one side, from the forward map
        # on the other
        xs = np.linspace(-30, 30, 241)
        for n in range(1, 9):
            sd = spectral_decompose(random_params(rng, n))
            u = explicit_solution(aa_from_spectral(sd), 0.0, xs)
            gap = np.abs(u - 2 * pi_u_resolvent(sd, xs).real).max()
            assert gap <= 1e-12 * np.abs(u).max()

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

    def test_eigenvalue_in_the_last_block_refused(self, rng):
        sd = spectral_decompose(random_params(rng, 2))
        z = np.linalg.eigvals(sd.m_matrix)[0]
        grid = np.linspace(-50, 50, 2 * _block_points(2) + 5) + 0j
        self._assert_refused(sd, np.append(grid, z))

    def test_computed_eigenvalues_refused(self, rng):
        sd = spectral_decompose(random_params(rng, 2))
        for z in np.linalg.eigvals(sd.m_matrix):
            self._assert_refused(sd, z)
            # a shift one part in 1e8 away is a regular point
            near = pi_u_resolvent(sd, z + 1e-8 * np.abs(sd.m_matrix).max())
            assert np.isfinite(near)
