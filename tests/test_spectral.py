import mpmath
import numpy as np
import pytest

from bo_soliton import spectral
from bo_soliton.action_angle import aa_from_spectral, inverse_map
from bo_soliton.errors import (
    DegenerateSpectrum,
    EigensolveFailed,
    InvariantViolation,
    PositivityFailure,
)
from bo_soliton.invariants import h_lambda, h_lambda_resolvent
from bo_soliton.profiles import (
    SolitonParameters,
    one_minus_theta,
    u_rational,
)
from bo_soliton.rational import (
    MP_DPS,
    PoleResidueForm,
    add,
    evaluate,
    inner_product,
    scale,
)
from bo_soliton.spectral import (
    cauchy_entries,
    cauchy_gram,
    g_apply,
    hpp_basis,
    lax_apply,
    lax_entries,
    lax_matrix,
    m_formula,
    mp_pairing,
    mt_generator,
    mt_lax,
    mt_residues,
    spectral_decompose,
    verify_m_matrix,
)
from conftest import random_params

SQRT_PI = np.sqrt(np.pi)


def one_soliton():
    return SolitonParameters((-1j,))


def phi_one():
    """Normalized ground eigenfunction of the unit soliton: i/(sqrt(pi)(x+i))."""
    return PoleResidueForm(((-1j, 1, 1j / SQRT_PI),))


class TestHppBasis:
    def test_one_soliton(self):
        (e0,) = hpp_basis(one_soliton())
        assert e0.terms == ((-1j, 1, 1.0),)

    def test_two_soliton_residues(self, rng):
        params = SolitonParameters((-1j, 1 - 2j))
        z1, z2 = params.zs
        e0, e1 = hpp_basis(params)
        # e1 = x/Q has residues z_j / Q'(z_j)
        lookup = {p: c for p, _, c in e1.terms}
        assert abs(lookup[z1] - z1 / (z1 - z2)) < 1e-14
        assert abs(lookup[z2] - z2 / (z2 - z1)) < 1e-14
        for x in rng.uniform(-5, 5, 10):
            q = (x - z1) * (x - z2)
            assert abs(evaluate(e1, x) - x / q) < 1e-13

    def test_gram_positive_definite(self, rng):
        for n in (2, 4, 8):
            basis = hpp_basis(random_params(rng, n))
            gram = np.array([[inner_product(basis[k], basis[j])
                              for k in range(n)] for j in range(n)])
            assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min() > 0


class TestLaxApply:
    def test_one_soliton_eigenfunction(self, rng):
        params = one_soliton()
        f = PoleResidueForm(((-1j, 1, 1.0),))
        lf = lax_apply(params, f)
        for x in rng.uniform(-6, 6, 10):
            assert abs(evaluate(lf, x) + 0.5 * evaluate(f, x)) < 1e-13

    def test_linearity(self, rng):
        params = random_params(rng, 3)
        e0, e1, e2 = hpp_basis(params)
        f = add(e0, scale(e1, 2.0 - 1j))
        lhs = lax_apply(params, f)
        rhs = add(lax_apply(params, e0), scale(lax_apply(params, e1), 2.0 - 1j))
        for x in rng.uniform(-5, 5, 10):
            assert abs(evaluate(lhs, x) - evaluate(rhs, x)) < 1e-11

    def test_self_adjoint_on_subspace(self, rng):
        params = random_params(rng, 4)
        basis = hpp_basis(params)
        f = add(basis[0], scale(basis[2], 1j))
        g = add(basis[1], scale(basis[3], 0.5 - 0.25j))
        lhs = inner_product(lax_apply(params, f), g)
        rhs = inner_product(f, lax_apply(params, g))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_stays_in_subspace(self, rng):
        params = random_params(rng, 5)
        for e in hpp_basis(params):
            out = lax_apply(params, e)
            assert set(out.poles()) <= set(params.zs)
            assert out.max_order() == 1


class TestGApply:
    def test_one_soliton_closed_form(self, rng):
        params = one_soliton()
        phi = phi_one()
        gphi = g_apply(params, phi)
        expected = PoleResidueForm(((-1j, 1, 1.0 / SQRT_PI),))
        for x in rng.uniform(-5, 5, 10):
            assert abs(evaluate(gphi, x) - evaluate(expected, x)) < 1e-13
        pairing = inner_product(gphi, phi)
        assert abs(pairing - (-1j)) < 1e-13

    def test_boundary_value_identity(self, rng):
        # <1 - Theta, phi_j> = sqrt(2 pi / |lambda_j|)
        params = random_params(rng, 4)
        sd = spectral_decompose(params)
        omt = one_minus_theta(params)
        for lam, phi in zip(sd.lambdas, sd.eigenfunctions):
            val = inner_product(omt, phi)
            target = np.sqrt(2 * np.pi / abs(lam))
            assert abs(val - target) < 1e-9 * target

    def test_preserves_subspace(self, rng):
        params = random_params(rng, 4)
        for e in hpp_basis(params):
            out = g_apply(params, e)
            assert set(out.poles()) <= set(params.zs)
            assert out.constant == 0


class TestSpectralDecompose:
    def test_unit_soliton_anchor(self):
        sd = spectral_decompose(one_soliton())
        assert sd.lambdas[0] == pytest.approx(-0.5, abs=1e-12)
        assert sd.gammas[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(sd.m_matrix[0, 0] - (-1j)) < 1e-12
        phi = sd.eigenfunctions[0]
        target = phi_one()
        for x in np.linspace(-3, 3, 7):
            assert abs(evaluate(phi, x) - evaluate(target, x)) < 1e-12

    def test_shift_scale_anchor(self):
        x0, c = 1.75, 2.5
        sd = spectral_decompose(SolitonParameters((x0 - 1j / c,)))
        assert sd.lambdas[0] == pytest.approx(-c / 2, abs=1e-12)
        assert sd.gammas[0] == pytest.approx(x0, abs=1e-12)
        assert abs(sd.m_matrix[0, 0] - (x0 - 1j / c)) < 1e-12

    def test_even_pair_has_zero_angles(self):
        sd = spectral_decompose(SolitonParameters((-1 - 1j, 1 - 1j)))
        assert np.abs(sd.gammas).max() < 1e-9

    def test_orthonormal_eigenfunctions(self, rng):
        params = random_params(rng, 5)
        sd = spectral_decompose(params)
        for j, pj in enumerate(sd.eigenfunctions):
            for k, pk in enumerate(sd.eigenfunctions):
                val = inner_product(pj, pk)
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-10

    def test_wu_identity(self, rng):
        for n in (2, 5, 8):
            params = random_params(rng, n)
            sd = spectral_decompose(params)
            u = u_rational(params)
            for lam, phi in zip(sd.lambdas, sd.eigenfunctions):
                pairing = inner_product(u, phi)
                norm2 = inner_product(phi, phi).real
                defect = abs(pairing) ** 2 + 2 * np.pi * lam * norm2
                assert abs(defect) < 1e-9 * (2 * np.pi * abs(lam) * norm2)

    def test_pairing_normalization(self, rng):
        params = random_params(rng, 4)
        sd = spectral_decompose(params)
        u = u_rational(params)
        for lam, phi in zip(sd.lambdas, sd.eigenfunctions):
            val = inner_product(u, phi)
            target = np.sqrt(2 * np.pi * abs(lam))
            assert abs(val - target) < 1e-9 * target

    def test_im_m_rank_one(self, rng):
        params = random_params(rng, 5)
        sd = spectral_decompose(params)
        v = 1.0 / np.sqrt(2 * np.abs(sd.lambdas))
        im_m = (sd.m_matrix - sd.m_matrix.conj().T) / 2j
        assert np.abs(im_m + np.outer(v, v)).max() < 1e-9
        assert np.linalg.eigvalsh(im_m).max() < 1e-9

    def test_m_spectrum_recovers_parameters(self, rng):
        params = random_params(rng, 6)
        sd = spectral_decompose(params)
        eig = sorted(np.linalg.eigvals(sd.m_matrix),
                     key=lambda z: (z.real, z.imag))
        assert np.abs(np.array(eig) - np.array(params.zs)).max() < 1e-8


class TestGates:
    """Each forward-map gate raises its typed error, NaN included."""

    params = SolitonParameters((-1 - 1j, 0.5 - 2j, 2 - 0.7j))

    @pytest.mark.parametrize("shift", [1e-7, -1e-7])
    def test_im_m_identity_gate(self, monkeypatch, shift):
        # M + i shift I breaks Im M = -p p^T alone; with shift < 0 the top
        # eigenvalue of Im M stays negative, so only the identity sees it
        product = spectral.zgemm
        monkeypatch.setattr(
            spectral, "zgemm",
            lambda *a, **k: product(*a, **k) + shift * 1j * np.eye(3))
        with pytest.raises(InvariantViolation, match="Im M misses"):
            spectral_decompose(self.params)

    def test_sylvester_info(self, monkeypatch):
        solve = spectral.ztrsyl
        monkeypatch.setattr(spectral, "ztrsyl",
                            lambda *a, **k: (*solve(*a, **k)[:2], 1))
        with pytest.raises(InvariantViolation, match="ztrsyl info 1"):
            spectral_decompose(self.params)

    def test_hermitian_eigensolve_info(self, monkeypatch):
        solve = spectral.zheevd
        monkeypatch.setattr(spectral, "zheevd",
                            lambda *a, **k: (*solve(*a, **k)[:2], 2))
        with pytest.raises(EigensolveFailed, match="zheevd info 2"):
            spectral_decompose(self.params)

    @pytest.mark.parametrize("j, error", [(0, DegenerateSpectrum),
                                          (1, DegenerateSpectrum),
                                          (2, PositivityFailure)])
    def test_nan_eigenvalue_trips_a_gate(self, monkeypatch, j, error):
        solve = spectral.zheevd

        def nan_at_j(*a, **k):
            lam, vecs, info = solve(*a, **k)
            lam[j] = np.nan
            return lam, vecs, info

        monkeypatch.setattr(spectral, "zheevd", nan_at_j)
        with pytest.raises(error):
            spectral_decompose(self.params)


class TestVerifyMMatrix:
    def test_one_soliton_exact(self):
        sd = spectral_decompose(one_soliton())
        assert verify_m_matrix(sd) < 1e-12

    def test_random_four(self, rng):
        sd = spectral_decompose(random_params(rng, 4))
        assert verify_m_matrix(sd) < 1e-8

    def test_formula_eigenvalues_match_parameters(self, rng):
        params = random_params(rng, 4)
        sd = spectral_decompose(params)
        m = m_formula(sd.lambdas, sd.gammas)
        eig = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
        assert np.abs(np.array(eig) - np.array(params.zs)).max() < 1e-8


def test_scaling_covariance(rng):
    params = random_params(rng, 3)
    sd = spectral_decompose(params)
    for c in (0.5, 3.0):
        sdc = spectral_decompose(params.scaled(c))
        assert np.abs(sdc.lambdas - c * sd.lambdas).max() < 1e-9 * c
        assert np.abs(sdc.gammas - sd.gammas / c).max() < 1e-9


def mpmath_eig_reference(params):
    """lambda_j and gamma_j from ``mpmath.eig`` of the Lax matrix at MP_DPS.

    The oracle for the forward map: an independent dense eigensolver in the
    partial-fraction basis, with gamma_j = Re<G phi_j, phi_j> / <phi_j, phi_j>
    paired exactly in the Cauchy kernel.
    """
    n = params.n
    with mpmath.workdps(MP_DPS):
        z = [mpmath.mpc(v) for v in params.zs]
        kern = cauchy_entries(z, mpmath.pi)
        lam, wmat = mpmath.eig(mpmath.matrix(lax_entries(z)))
        order = sorted(range(n), key=lambda j: mpmath.re(lam[j]))
        gam = []
        for j in order:
            col = [wmat[r, j] for r in range(n)]
            gcol = [z[r] * col[r] for r in range(n)]
            gam.append(float(mpmath.re(mp_pairing(gcol, col, kern))
                             / mpmath.re(mp_pairing(col, col, kern))))
        lam = [float(mpmath.re(lam[j])) for j in order]
    return np.array(lam), np.array(gam)


class TestHardConfigurations:
    """Clustered broad solitons: the Gram of the partial-fraction basis is
    nearly singular, while the Malmquist-Takenaka basis stays orthonormal."""

    def blob(self):
        zs = tuple(complex(0.8 * k - 2.8, -(3.0 + 0.4 * ((k * 7) % 5)))
                   for k in range(8))
        return SolitonParameters(zs)

    def test_wu_and_orthonormality_survive(self):
        params = self.blob()
        assert cauchy_gram(params.zs)[1] > 1e6
        sd = spectral_decompose(params)
        u = u_rational(params)
        for j, phi in enumerate(sd.eigenfunctions):
            ip = inner_product(u, phi)
            n2 = inner_product(phi, phi).real
            lam = sd.lambdas[j]
            defect = abs(abs(ip) ** 2 + 2 * np.pi * lam * n2)
            assert defect < 1e-9 * (2 * np.pi * abs(lam) * n2)
            for k, pk in enumerate(sd.eigenfunctions):
                val = inner_product(phi, pk)
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-10

    def test_m_checks_survive(self):
        sd = spectral_decompose(self.blob())
        assert verify_m_matrix(sd) < 1e-8
        im_m = (sd.m_matrix - sd.m_matrix.conj().T) / 2j
        assert np.linalg.eigvalsh(im_m).max() < 1e-9

    def test_refined_path_matches_mpmath_eig(self, rng):
        # clustered draws, then well-conditioned ones (Gram condition <= 1e6)
        cases = [self.blob()]
        while len(cases) < 5:
            params = random_params(rng, 6 + len(cases))
            if 1e6 < cauchy_gram(params.zs)[1] <= 1e12:
                cases.append(params)
        while len(cases) < 9:
            params = random_params(rng, len(cases) - 1)
            if cauchy_gram(params.zs)[1] <= 1e6:
                cases.append(params)
        for params in cases:
            sd = spectral_decompose(params)
            lam, gam = mpmath_eig_reference(params)
            assert np.abs(sd.lambdas - lam).max() < 1e-14 * np.abs(lam).max()
            assert np.abs(sd.gammas - gam).max() < 1e-12
            assert verify_m_matrix(sd) < 1e-8

    def test_mt_matrices_match_partial_fraction_transform(self, rng):
        # keeps criterion 4 independent of the Sylvester algebra: in MP_DPS
        # digits, R^-1 T R is the Sylvester L and R^-1 diag(z) R is G
        cases = [self.blob()]
        while len(cases) < 4:
            params = random_params(rng, 8 + len(cases))
            if cauchy_gram(params.zs)[1] > 1e6:
                cases.append(params)
        for params in cases:
            gmat, _ = mt_generator(params.zs)
            lmat = mt_lax(gmat)
            with mpmath.workdps(MP_DPS):
                z = [mpmath.mpc(v) for v in params.zs]
                rmat = mpmath.matrix(mt_residues(z))
                rinv = rmat ** -1
                lax_mt = rinv * mpmath.matrix(lax_entries(z)) * rmat
                gen_mt = rinv * mpmath.diag(z) * rmat
                lax_mt, gen_mt = (np.array(a.tolist(), dtype=complex)
                                  for a in (lax_mt, gen_mt))
            assert np.abs(lax_mt - lmat).max() < 1e-13 * np.abs(lmat).max()
            assert np.abs(gen_mt - gmat).max() < 1e-14 * np.abs(gmat).max()

    def test_inputs_beyond_the_old_gram_limit(self, rng):
        # criteria 2 and 4 on N = 12 with Gram condition above 1e13, which
        # the partial-fraction route refused above 1e12
        while True:
            params = random_params(rng, 12)
            if cauchy_gram(params.zs)[1] > 1e13:
                break
        sd = spectral_decompose(params)
        aa = aa_from_spectral(sd)
        back = inverse_map(aa)
        aa2 = aa_from_spectral(spectral_decompose(back))
        roundtrip = max(np.abs(np.array(back.zs) - np.array(params.zs)).max(),
                        np.abs(aa2.rs - aa.rs).max(),
                        np.abs(aa2.alphas - aa.alphas).max())
        assert roundtrip < 1e-7
        self.assert_criterion_4(sd)

    def test_m_checks_at_n16(self, rng):
        # criterion 4 on random_params draws at N = 16 (Gram condition up to
        # 2.5e16).  Criterion 2 is not asserted: at this N the roundtrip is
        # limited by the eigenvalue condition of M, not by the forward map,
        # and one of these draws reads 1.1e-7
        for _ in range(6):
            self.assert_criterion_4(spectral_decompose(random_params(rng, 16)))

    @staticmethod
    def assert_criterion_4(sd):
        assert verify_m_matrix(sd) < 1e-8
        im_m = (sd.m_matrix - sd.m_matrix.conj().T) / 2j
        assert np.linalg.eigvalsh(im_m).max() <= 1e-9

    def test_h_lambda_routes_agree(self):
        params = self.blob()
        # the resolvent solve runs in mpmath too
        assert cauchy_gram(params.zs)[1] > 1e6
        sd = spectral_decompose(params)
        for lam in (0.7, 2.5, 9.0):
            assert h_lambda_resolvent(params, lam) == pytest.approx(
                h_lambda(sd, lam), rel=1e-9)


def test_lax_entries_in_mpmath_match_lax_matrix(rng):
    params = random_params(rng, 5)
    for shift in (0, 2.5):
        with mpmath.workdps(MP_DPS):
            entries = lax_entries([mpmath.mpc(z) for z in params.zs], shift)
            tmat = np.array([[complex(v) for v in row] for row in entries])
        tmat -= shift * np.eye(5)
        assert np.abs(tmat - lax_matrix(params)).max() < 1e-12


def test_lax_matrix_matches_lax_apply(rng):
    params = random_params(rng, 5)
    tmat = lax_matrix(params)
    pole_index = {z: i for i, z in enumerate(params.zs)}
    for s, z in enumerate(params.zs):
        image = lax_apply(params, PoleResidueForm(((z, 1, 1.0),)))
        col = np.zeros(5, dtype=complex)
        for p, m, c in image.terms:
            col[pole_index[p]] = c
        assert np.abs(col - tmat[:, s]).max() < 1e-12


def test_m_matrix_matches_g_apply_route(rng):
    params = random_params(rng, 4)
    sd = spectral_decompose(params)
    for j, phi_j in enumerate(sd.eigenfunctions):
        gphi = g_apply(params, phi_j)
        for k, phi_k in enumerate(sd.eigenfunctions):
            direct = inner_product(gphi, phi_k)
            assert abs(direct - sd.m_matrix[k, j]) < 1e-10
