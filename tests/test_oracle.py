"""The partial-fraction oracles, and the boundary that keeps them off the
production path and the test-side calculus out of the package."""

import ast
import dataclasses
from pathlib import Path

import mpmath
import numpy as np
import pytest

import bo_soliton
from bo_soliton.errors import InvariantViolation, SingularResolvent
from bo_soliton.oracle import MP_DPS, h_lambda_resolvent, lax_entries, wu_defect
from bo_soliton.profiles import SolitonParameters
from bo_soliton.spectral import spectral_decompose
from bo_soliton.validation import CHECKS
from conftest import SQRT_PI, one_soliton, phi_one, random_params
from polecalc import (
    PoleResidueForm,
    add,
    eigenfunctions,
    evaluate,
    g_apply,
    inner_product,
    lax_apply,
    one_minus_theta,
    pi_u,
    scale,
)

# the modules of the forward map, the inverse map, the explicit solution, the
# invariants and the PDE reference: none of them may depend on the oracle, on
# the pole-residue calculus of the tests or on extended precision
PRODUCTION_MODULES = ("spectral", "action_angle", "profiles", "invariants",
                      "pde", "tableio")
FORBIDDEN_IMPORTS = {"oracle", "polecalc", "mpmath"}
# the numerical modules write no file: tableio's writers serve the CLI alone
NUMERICAL_MODULES = ("spectral", "action_angle", "profiles", "invariants",
                     "pde")

# every public name of the package namespace; each must keep resolving as
# bo_soliton.<name> wherever its definition lives
PACKAGE_NAMES = """
    ActionAngles GridField PdeConfig SolitonParameters SpectralData
    aa_from_spectral action_angle compare e1_quadrature e_n_from_spectrum
    errors evolve_aa explicit_solution forward_map h_lambda
    h_lambda_resolvent invariants inverse_map m_from_aa omega_matrix oracle
    pde pi_u_resolvent poisson_bracket_table profile profiles run spectral
    spectral_decompose step symplectomorphism_check tableio torus_potential
    verify_m_matrix __version__
""".split()


def pf_basis(params):
    """The partial-fraction basis 1/(x - z_r) of the invariant subspace."""
    return [PoleResidueForm(((z, 1, 1.0),)) for z in params.zs]


def random_element(rng, params):
    """A random sum_r c_r / (x - z_r), an element of the invariant subspace."""
    coeffs = rng.normal(size=params.n) + 1j * rng.normal(size=params.n)
    return PoleResidueForm(tuple(zip(params.zs, [1] * params.n, coeffs)))


def imported_names(path):
    """Dotted names of every module and name imported in a source file."""
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_production_modules_do_not_import_oracle():
    package = Path(bo_soliton.__file__).parent
    offenders = [(module, name) for module in PRODUCTION_MODULES
                 for name in imported_names(package / f"{module}.py")
                 if FORBIDDEN_IMPORTS & set(name.split("."))]
    assert not offenders, f"production modules importing oracle code: {offenders}"


def test_no_package_module_imports_the_test_calculus():
    # polecalc, the oracle of the tests, is not shipped with the package
    package = Path(bo_soliton.__file__).parent
    offenders = [(path.name, name) for path in sorted(package.glob("*.py"))
                 for name in imported_names(path)
                 if "polecalc" in name.split(".")]
    assert not offenders, f"package modules importing polecalc: {offenders}"


def test_numerical_modules_do_not_import_tableio():
    package = Path(bo_soliton.__file__).parent
    offenders = [(module, name) for module in NUMERICAL_MODULES
                 for name in imported_names(package / f"{module}.py")
                 if "tableio" in name.split(".")]
    assert not offenders, f"numerical modules importing tableio: {offenders}"


def test_only_the_binding_module_imports_scipy():
    # scipy.linalg costs more start-up than a synth or torus run; it is
    # imported in one place, at the first LAPACK call
    package = Path(bo_soliton.__file__).parent
    offenders = [(path.name, name) for path in sorted(package.glob("*.py"))
                 if path.name != "_lapack.py"
                 for name in imported_names(path)
                 if name.split(".")[0] == "scipy"]
    assert not offenders, f"modules importing scipy directly: {offenders}"


def test_package_names_resolve():
    missing = [name for name in PACKAGE_NAMES if not hasattr(bo_soliton, name)]
    assert not missing, f"names gone from the package namespace: {missing}"


def test_every_exported_name_resolves():
    # __all__ is built from the export table, whose stale entries
    # PACKAGE_NAMES, a fixed list, would not notice
    missing = [name for name in bo_soliton.__all__
               if not hasattr(bo_soliton, name)]
    assert not missing, f"exported names that do not resolve: {missing}"


def test_dir_lists_every_exported_name():
    # the lazy names are absent from the namespace until first read
    assert set(bo_soliton.__all__) <= set(dir(bo_soliton))


class TestHppBasis:
    """The pure-point subspace span{x^k / Q_u} in its partial-fraction
    basis 1/(x - z_r)."""

    def test_gram_positive_definite(self, rng):
        for n in (2, 4, 8):
            basis = pf_basis(random_params(rng, n))
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
        e0, e1 = random_element(rng, params), random_element(rng, params)
        f = add(e0, scale(e1, 2.0 - 1j))
        lhs = lax_apply(params, f)
        rhs = add(lax_apply(params, e0), scale(lax_apply(params, e1), 2.0 - 1j))
        for x in rng.uniform(-5, 5, 10):
            assert abs(evaluate(lhs, x) - evaluate(rhs, x)) < 1e-11

    def test_self_adjoint_on_subspace(self, rng):
        params = random_params(rng, 4)
        basis = pf_basis(params)
        f = add(random_element(rng, params), scale(basis[2], 1j))
        g = add(basis[1], scale(random_element(rng, params), 0.5 - 0.25j))
        lhs = inner_product(lax_apply(params, f), g)
        rhs = inner_product(f, lax_apply(params, g))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_refuses_a_function_outside_the_subspace(self):
        params = SolitonParameters((-1j, 2 - 0.5j))
        f = PoleResidueForm(((3 - 0.7j, 1, 1.0),))
        with pytest.raises(InvariantViolation,
                           match=r"residual pole mass 1\.000e\+00 at order"):
            lax_apply(params, f)

    def test_stays_in_subspace(self, rng):
        params = random_params(rng, 5)
        for e in pf_basis(params) + [random_element(rng, params)]:
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
        for lam, phi in zip(sd.lambdas, eigenfunctions(sd)):
            val = inner_product(omt, phi)
            target = np.sqrt(2 * np.pi / abs(lam))
            assert abs(val - target) < 1e-9 * target

    def test_refuses_a_function_outside_the_subspace(self):
        params = SolitonParameters((-1j, 2 - 0.5j))
        f = PoleResidueForm(((3 - 0.7j, 1, 1.0),))
        with pytest.raises(InvariantViolation,
                           match=r"residual constant 5\.708e-01 did not"):
            g_apply(params, f)

    def test_preserves_subspace(self, rng):
        # x/(x - z_r) = 1 + z_r/(x - z_r): the constant of each basis
        # element, and of their sums, cancels against the boundary term
        params = random_params(rng, 4)
        for e in pf_basis(params) + [random_element(rng, params)]:
            out = g_apply(params, e)
            assert set(out.poles()) <= set(params.zs)
            assert out.constant == 0


def test_lax_entries_in_mpmath_match_lax_matrix(rng):
    params = random_params(rng, 5)
    for shift in (0, 2.5):
        with mpmath.workdps(MP_DPS):
            entries = lax_entries([mpmath.mpc(z) for z in params.zs], shift)
            tmat = np.array([[complex(v) for v in row] for row in entries])
        tmat -= shift * np.eye(5)
        assert np.abs(tmat - np.array(lax_entries(params.zs))).max() < 1e-12


def test_lax_diagonal_matches_inline_sum(rng):
    # the diagonal shift - sum_{r != s} t_rs - sum_r i/(conj z_r - z_s),
    # summed here without the Cauchy kernel
    params = random_params(rng, 6)
    for shift in (0, 2.5):
        for z in (list(params.zs), [mpmath.mpc(v) for v in params.zs]):
            with mpmath.workdps(MP_DPS):
                t = lax_entries(z, shift)
                for s, zs in enumerate(z):
                    diag = shift - sum(t[r][s] for r in range(6) if r != s)
                    diag -= sum(1j / (zr.conjugate() - zs) for zr in z)
                    assert abs(t[s][s] - diag) <= 1e-14 * max(1, abs(diag))


def test_lax_matrix_matches_lax_apply(rng):
    params = random_params(rng, 5)
    tmat = np.array(lax_entries(params.zs))
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
    for j, phi_j in enumerate(eigenfunctions(sd)):
        gphi = g_apply(params, phi_j)
        for k, phi_k in enumerate(eigenfunctions(sd)):
            direct = inner_product(gphi, phi_k)
            assert abs(direct - sd.m_matrix[k, j]) < 1e-10


def test_wu_defect_reads_the_wu_identity(rng):
    tol = CHECKS["wu_identity"]
    for n in range(1, 9):
        params = random_params(rng, n)
        sd = spectral_decompose(params)
        assert wu_defect(params, sd) <= tol
        # a 1e-7 relative error in the eigenvalues breaks the identity
        off = dataclasses.replace(sd, lambdas=sd.lambdas * (1 + 1e-7))
        assert wu_defect(params, off) > tol


def test_singular_resolvent_solve_is_typed(monkeypatch):
    # mpmath's LU raises ZeroDivisionError on a singular matrix
    def singular(*args, **kwargs):
        raise ZeroDivisionError("matrix is numerically singular")

    monkeypatch.setattr(mpmath, "lu_solve", singular)
    with pytest.raises(SingularResolvent, match="is singular"):
        h_lambda_resolvent(SolitonParameters((-1j,)), 0.5)


class TestPiU:
    def test_iqprime_over_q(self, rng):
        # the polynomial characterization Pi u = i Q'/Q: residues i at each z_j
        zs = [complex(rng.uniform(-3, 3), -rng.uniform(0.3, 2)) for _ in range(4)]
        f = pi_u(SolitonParameters(tuple(zs)))
        assert {p for p, _, _ in f.terms} == set(zs)
        for _, m, c in f.terms:
            assert m == 1 and abs(c - 1j) < 1e-12
        q = np.array([1.0 + 0j])
        for z in zs:
            q = np.convolve(q, [1.0, -z])
        qprime = np.polyder(q)
        for x in rng.uniform(-10, 10, 10):
            direct = 1j * np.polyval(qprime, x) / np.polyval(q, x)
            assert abs(evaluate(f, x) - direct) < 1e-12


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
        f = one_minus_theta(params)
        for x in rng.uniform(-5, 5, 10):
            direct = 1 - np.prod([(x - z.conjugate()) / (x - z)
                                  for z in params.zs])
            assert abs(evaluate(f, x) - direct) < 1e-12
