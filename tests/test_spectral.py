import mpmath
import numpy as np
import pytest

from bo_soliton import _lapack, spectral
from bo_soliton.action_angle import aa_from_spectral
from bo_soliton.errors import (
    DegenerateSpectrum,
    EigensolveFailed,
    InvariantViolation,
    NonFiniteInput,
    PositivityFailure,
)
from bo_soliton.invariants import h_lambda
from bo_soliton.oracle import (
    MP_DPS,
    h_lambda_resolvent,
    lax_entries,
    mp_pairing,
    mt_residues,
)
from bo_soliton.profiles import SolitonParameters, cauchy_kernel
from bo_soliton.spectral import (
    m_formula,
    mt_generator,
    mt_lax,
    spectral_decompose,
    verify_m_matrix,
)
from bo_soliton.validation import im_m_top, roundtrip_defect
from conftest import one_soliton, phi_one, random_params
from polecalc import (
    cauchy_gram,
    eigenfunctions,
    evaluate,
    inner_product,
    u_rational,
)


class TestSpectralDecompose:
    def test_unit_soliton_anchor(self):
        sd = spectral_decompose(one_soliton())
        assert sd.lambdas[0] == pytest.approx(-0.5, abs=1e-12)
        assert sd.gammas[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(sd.m_matrix[0, 0] - (-1j)) < 1e-12
        phi = eigenfunctions(sd)[0]
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
        for j, pj in enumerate(eigenfunctions(sd)):
            for k, pk in enumerate(eigenfunctions(sd)):
                val = inner_product(pj, pk)
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-10

    def test_wu_identity(self, rng):
        for n in (2, 5, 8):
            params = random_params(rng, n)
            sd = spectral_decompose(params)
            u = u_rational(params)
            for lam, phi in zip(sd.lambdas, eigenfunctions(sd)):
                pairing = inner_product(u, phi)
                norm2 = inner_product(phi, phi).real
                defect = abs(pairing) ** 2 + 2 * np.pi * lam * norm2
                assert abs(defect) < 1e-9 * (2 * np.pi * abs(lam) * norm2)

    def test_pairing_normalization(self, rng):
        params = random_params(rng, 4)
        sd = spectral_decompose(params)
        u = u_rational(params)
        for lam, phi in zip(sd.lambdas, eigenfunctions(sd)):
            val = inner_product(u, phi)
            target = np.sqrt(2 * np.pi * abs(lam))
            assert abs(val - target) < 1e-9 * target

    def test_im_m_rank_one(self, rng):
        params = random_params(rng, 5)
        sd = spectral_decompose(params)
        v = 1.0 / np.sqrt(2 * np.abs(sd.lambdas))
        im_m = (sd.m_matrix - sd.m_matrix.conj().T) / 2j
        assert np.abs(im_m + np.outer(v, v)).max() < 1e-9
        assert im_m_top(sd.m_matrix) < 1e-9

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
        product = _lapack.zgemm
        monkeypatch.setattr(
            _lapack, "zgemm",
            lambda *a, **k: product(*a, **k) + shift * 1j * np.eye(3))
        with pytest.raises(InvariantViolation, match="Im M misses"):
            spectral_decompose(self.params)

    def test_sylvester_info(self, monkeypatch):
        solve = _lapack.ztrsyl
        monkeypatch.setattr(_lapack, "ztrsyl",
                            lambda *a, **k: (*solve(*a, **k)[:2], 1))
        with pytest.raises(InvariantViolation, match="ztrsyl info 1"):
            spectral_decompose(self.params)

    def test_sylvester_scale_is_divided_out(self, monkeypatch):
        # ztrsyl solves G X - X G* = scale C, with scale <= 1 against
        # overflow; mt_lax returns X / scale, here exactly the unscaled X
        gmat, _ = mt_generator(self.params.zs)
        expected = mt_lax(gmat)
        solve = _lapack.ztrsyl
        monkeypatch.setattr(_lapack, "ztrsyl",
                            lambda *a, **k: (solve(*a, **k)[0] * 0.5, 0.5, 0))
        assert np.array_equal(mt_lax(gmat), expected)

    def test_hermitian_eigensolve_info(self, monkeypatch):
        solve = _lapack.zheevd
        monkeypatch.setattr(_lapack, "zheevd",
                            lambda *a, **k: (*solve(*a, **k)[:2], 2))
        with pytest.raises(EigensolveFailed, match="zheevd info 2"):
            spectral_decompose(self.params)

    def patch_zheevd(self, monkeypatch, edit):
        """Run ``edit(lam, vecs)`` on the output of zheevd before the gates."""
        solve = _lapack.zheevd

        def edited(*a, **k):
            lam, vecs, info = solve(*a, **k)
            edit(lam, vecs)
            return lam, vecs, info

        monkeypatch.setattr(_lapack, "zheevd", edited)

    def test_near_degenerate_gap_gate(self, monkeypatch):
        # a finite gap of 1e-12 |lambda_1|, below GAP_TOL = 1e-10
        def close_pair(lam, vecs):
            lam[1] = lam[0] * (1 - 1e-12)

        self.patch_zheevd(monkeypatch, close_pair)
        with pytest.raises(DegenerateSpectrum, match="eigenvalue gap"):
            spectral_decompose(self.params)

    def test_wu_gate(self, monkeypatch):
        # eigenvectors of norm 1 + 1e-6: 2 |lambda_j| p_j^2 = 1 + 2e-6
        def stretch(lam, vecs):
            vecs *= 1 + 1e-6

        self.patch_zheevd(monkeypatch, stretch)
        with pytest.raises(InvariantViolation, match="Wu defect"):
            spectral_decompose(self.params)

    @pytest.mark.parametrize("j", [0, 2])
    @pytest.mark.parametrize("factor", [1e-12, np.nan])
    def test_vanished_pairing_gate(self, monkeypatch, j, factor):
        # <u, phi_j> below 1e-10 of its Wu value also fails the Wu test;
        # the vanished pairing is the error reported
        def shrink(lam, vecs):
            vecs[:, j] *= factor

        self.patch_zheevd(monkeypatch, shrink)
        with pytest.raises(PositivityFailure, match=rf"phi_{j + 1}> vanished"):
            spectral_decompose(self.params)

    @pytest.mark.parametrize("j, error", [(0, DegenerateSpectrum),
                                          (1, DegenerateSpectrum),
                                          (2, PositivityFailure)])
    def test_nan_eigenvalue_trips_a_gate(self, monkeypatch, j, error):
        solve = _lapack.zheevd

        def nan_at_j(*a, **k):
            lam, vecs, info = solve(*a, **k)
            lam[j] = np.nan
            return lam, vecs, info

        monkeypatch.setattr(_lapack, "zheevd", nan_at_j)
        with pytest.raises(error):
            spectral_decompose(self.params)


class TestClosedForms:
    """The production closed forms against their plain complex expressions,
    bit for bit (signed zeros included)."""

    @staticmethod
    def same_bits(a, b):
        return (a.shape == b.shape and a.dtype == b.dtype
                and np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes())

    def test_m_formula(self, rng):
        for n in range(1, 13):
            lam = -np.sort(rng.uniform(0.05, 5.0, n))[::-1]
            gam = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
            gam[0] = -0.0
            mag = np.abs(lam)
            gaps = lam[:, None] - lam
            gaps.flat[::n + 1] = 1.0
            ref = 1j / gaps * np.sqrt(mag[:, None] / mag)
            ref.flat[::n + 1] = gam - 1j / (2 * mag)
            assert self.same_bits(m_formula(lam, gam), ref)

    @pytest.mark.parametrize("lam", [
        [-1e-320],           # -0.5/|lambda| overflows
        [-1e300, -1e-10],    # the ratio overflows
        [-1.6e-308, -1e-308],  # 1/gap times the root of the ratio overflows
        [-1.0, -1.0],        # a zero gap
    ], ids=["diagonal", "ratio", "gap", "equal"])
    def test_m_formula_refuses_non_finite_entries(self, lam):
        with pytest.raises(NonFiniteInput, match="M has a non-finite entry"):
            m_formula(np.array(lam), np.zeros(len(lam)))

    def test_mt_generator(self, rng):
        for n in range(1, 13):
            z = random_params(rng, n).zs_array
            s = np.sqrt(-z.imag)
            k = np.arange(n)
            ref = np.outer(s, -2j * s) * (k[:, None] < k)
            ref.flat[::n + 1] = z
            gmat, s_out = mt_generator(z)
            assert self.same_bits(gmat, ref) and self.same_bits(s_out, s)
            assert gmat.flags.f_contiguous

    def test_cached_constants_stay_read_only(self, rng):
        sizes = (1, 3, 6, 9)
        for n in sizes:
            spectral_decompose(random_params(rng, n))
        cached = {n: spectral._fixed(n) for n in sizes}
        for n in sizes:
            spectral_decompose(random_params(rng, n))
            upper, eye_i = spectral._fixed(n)
            assert upper is cached[n][0] and eye_i is cached[n][1]
            assert not upper.flags.writeable and not eye_i.flags.writeable
            assert np.array_equal(upper, np.triu(np.ones((n, n), bool), 1))
            assert self.same_bits(eye_i, np.asfortranarray(1j * np.eye(n)))
            with pytest.raises(ValueError):
                eye_i[0, 0] = 0


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


class TestUnitScale:
    """Above max eta = 4^5 the gates run on z / 4^floor(log4 max eta)."""

    @pytest.mark.parametrize("eta", [1e15, 1e154, 1e300])
    def test_single_soliton(self, eta):
        sd = spectral_decompose(SolitonParameters((-1j * eta,)))
        assert sd.lambdas[0] == pytest.approx(-1 / (2 * eta), rel=1e-15)
        assert sd.gammas[0] == 0
        assert sd.zs == (-1j * eta,)

    def test_draws_at_4_to_the_10(self):
        rng = np.random.default_rng(5)
        draws = [random_params(rng, n) for n in (2, 4, 8, 16)
                 for _ in range(25)]
        unscaled = max(roundtrip_defect(p, aa_from_spectral(
            spectral_decompose(p))) for p in draws)
        a = 4.0 ** 10
        for p in draws:
            big = SolitonParameters(tuple(p.zs_array * a))
            err = roundtrip_defect(big, aa_from_spectral(
                spectral_decompose(big)))
            assert err / a <= unscaled

    def test_rescale_is_exact(self):
        # max eta in [1, 4): z * 4^k runs on z itself, so its results are
        # those of z, scaled by a power of 2
        params = SolitonParameters((-1 - 0.5j, 0.5 - 2j, 2 - 1j))
        sd = spectral_decompose(params)
        for k in (6, 40):
            a = 4.0 ** k
            big = spectral_decompose(SolitonParameters(
                tuple(params.zs_array * a)))
            assert np.array_equal(big.lambdas, sd.lambdas / a)
            assert np.array_equal(big.m_matrix, sd.m_matrix * a)
            assert np.array_equal(big.gammas, sd.gammas * a)
            assert np.array_equal(big.vectors, sd.vectors)

    # sqrt(max eta) decides: at the float after 1024 it still rounds to 32
    @pytest.mark.parametrize("eta, a", [
        (1024.0, 1.0), (float(np.nextafter(1024.0, 2048.0)), 1.0),
        (1025.0, 1024.0)])
    def test_threshold(self, monkeypatch, eta, a):
        # the scale is read off the poles, so G is built once on either side
        seen = []

        def spy(zs):
            seen.append(zs)
            return mt_generator(zs)

        monkeypatch.setattr(spectral, "mt_generator", spy)
        params = SolitonParameters((-1j * eta, 1 - 1j))
        spectral_decompose(params)
        assert len(seen) == 1
        assert np.array_equal(seen[0], params.zs_array / a)


def mpmath_eig_reference(params):
    """lambda_j and gamma_j from ``mpmath.eig`` of the Lax matrix at MP_DPS.

    The oracle for the forward map: an independent dense eigensolver in the
    partial-fraction basis, with gamma_j = Re<G phi_j, phi_j> / <phi_j, phi_j>
    paired exactly in the Cauchy kernel.
    """
    n = params.n
    with mpmath.workdps(MP_DPS):
        z = [mpmath.mpc(v) for v in params.zs]
        kern = [[2j * mpmath.pi * k for k in row] for row in cauchy_kernel(z, z)]
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
        assert cauchy_gram(params.zs) > 1e6
        sd = spectral_decompose(params)
        u = u_rational(params)
        for j, phi in enumerate(eigenfunctions(sd)):
            ip = inner_product(u, phi)
            n2 = inner_product(phi, phi).real
            lam = sd.lambdas[j]
            defect = abs(abs(ip) ** 2 + 2 * np.pi * lam * n2)
            assert defect < 1e-9 * (2 * np.pi * abs(lam) * n2)
            for k, pk in enumerate(eigenfunctions(sd)):
                val = inner_product(phi, pk)
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-10

    def test_m_checks_survive(self):
        sd = spectral_decompose(self.blob())
        assert verify_m_matrix(sd) < 1e-8
        assert im_m_top(sd.m_matrix) < 1e-9

    def test_refined_path_matches_mpmath_eig(self, rng):
        # clustered draws, then well-conditioned ones (Gram condition <= 1e6)
        cases = [self.blob()]
        while len(cases) < 5:
            params = random_params(rng, 6 + len(cases))
            if 1e6 < cauchy_gram(params.zs) <= 1e12:
                cases.append(params)
        while len(cases) < 9:
            params = random_params(rng, len(cases) - 1)
            if cauchy_gram(params.zs) <= 1e6:
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
            if cauchy_gram(params.zs) > 1e6:
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
            if cauchy_gram(params.zs) > 1e13:
                break
        sd = spectral_decompose(params)
        assert roundtrip_defect(params, aa_from_spectral(sd)) < 1e-7
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
        assert im_m_top(sd.m_matrix) <= 1e-9

    def test_h_lambda_routes_agree(self):
        params = self.blob()
        assert cauchy_gram(params.zs) > 1e6
        sd = spectral_decompose(params)
        for lam in (0.7, 2.5, 9.0):
            assert h_lambda_resolvent(params, lam) == pytest.approx(
                h_lambda(sd, lam), rel=1e-9)
