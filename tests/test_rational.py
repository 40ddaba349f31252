import mpmath
import numpy as np
import pytest

from bo_soliton.errors import DegenerateParameters, PoleProximity
from bo_soliton.oracle import MP_DPS, mp_pairing
from bo_soliton.profiles import cauchy_kernel
from bo_soliton.spectral import spectral_decompose
from bo_soliton.validation import random_params
from conftest import quad_inner, random_form
from polecalc import (
    ZERO,
    DegreeError,
    NotSquareIntegrable,
    PoleResidueForm,
    add,
    conj_reflect,
    derivative,
    eigenfunctions,
    evaluate,
    inner_product,
    multiply,
    multiply_by_x,
    szego_project,
    u_rational,
)


def form(*terms, constant=0j):
    return PoleResidueForm(tuple(terms), constant)


class TestMultiply:
    def test_split_across_half_planes(self, rng):
        f = form((-1j, 1, 1j))
        g = form((1j, 1, -1j))
        prod = multiply(f, g)
        expected = form((-1j, 1, 0.5j), (1j, 1, -0.5j))  # 1/(x^2+1)
        for x in rng.uniform(-10, 10, 10):
            assert abs(evaluate(prod, x) - evaluate(expected, x)) < 1e-12
            assert abs(evaluate(prod, x) - 1 / (x ** 2 + 1)) < 1e-12

    def test_zero_annihilates(self):
        f = form((-1j, 1, 2.0))
        assert multiply(f, ZERO).is_zero

    def test_order_accumulation(self):
        f = form((-1j, 1, 1.0))
        prod = multiply(f, f)
        assert prod.terms == ((-1j, 2, 1.0),)

    def test_pointwise_consistency(self, rng):
        for _ in range(10):
            f = random_form(rng, max_poles=3)
            g = random_form(rng, max_poles=3)
            prod = multiply(f, g)
            scale = max(f.coeff_scale() * g.coeff_scale(), 1.0)
            for x in rng.uniform(-8, 8, 20):
                lhs = evaluate(prod, x)
                rhs = evaluate(f, x) * evaluate(g, x)
                assert abs(lhs - rhs) < 1e-11 * scale

    def test_constant_parts(self, rng):
        # random_form's constant is 0; here both factors carry one
        for _ in range(20):
            f, g = (PoleResidueForm(random_form(rng, max_poles=3).terms,
                                    complex(*rng.normal(size=2)))
                    for _ in range(2))
            xs = rng.uniform(-8, 8, 20)
            rhs = evaluate(f, xs) * evaluate(g, xs)
            gap = np.abs(evaluate(multiply(f, g), xs) - rhs).max()
            assert gap < 1e-12 * np.abs(rhs).max()

    def test_close_distinct_poles_rejected(self):
        f = form((-1j, 1, 1.0))
        g = form((-1j * (1 + 1e-11), 1, 1.0))
        with pytest.raises(DegenerateParameters):
            multiply(f, g)


class TestDerivative:
    def test_power_rule(self):
        f = form((-1j, 1, 1j))
        assert derivative(f).terms == ((-1j, 2, -1j),)

    def test_constant_drops(self):
        assert derivative(form(constant=5.0)).is_zero

    def test_matches_quotient_rule_for_pi_u(self, rng):
        # d/dx [i/(x+i)] = -i/(x+i)^2 = i Q''/Q - i (Q'/Q)^2 for Q = x + i
        f = form((-1j, 1, 1j))
        df = derivative(f)
        assert df.terms == ((-1j, 2, -1j),)
        for x in rng.uniform(-5, 5, 10):
            q = x + 1j
            assert abs(evaluate(df, x) - (0 * 1j / q - 1j / q ** 2)) < 1e-12


class TestMultiplyByX:
    def test_simple_pole(self, rng):
        f = form((-1j, 1, 1j))
        xf = multiply_by_x(f)
        assert abs(xf.constant - 1j) < 1e-15
        for x in rng.uniform(-10, 10, 10):
            assert abs(evaluate(xf, x) - x * evaluate(f, x)) < 1e-12

    def test_order_two(self):
        f = form((-1j, 2, 1.0))
        xf = multiply_by_x(f)
        assert dict(((p, m), c) for p, m, c in xf.terms) == {
            (-1j, 1): 1.0, (-1j, 2): -1j}

    def test_zero(self):
        assert multiply_by_x(ZERO).is_zero

    def test_constant_rejected(self):
        with pytest.raises(DegreeError):
            multiply_by_x(form(constant=1.0))


class TestSzegoProject:
    def test_one_soliton_profile(self):
        u = form((-1j, 1, 1j), (1j, 1, -1j))  # 2/(1+x^2)
        assert szego_project(u).terms == ((-1j, 1, 1j),)

    def test_upper_half_to_zero(self):
        f = form((1j, 1, 1.0), (2 + 1j, 2, 3.0))
        assert szego_project(f).is_zero

    def test_idempotent(self, rng):
        f = random_form(rng)
        once = szego_project(f)
        assert szego_project(once) == once

    def test_requires_l2(self):
        with pytest.raises(NotSquareIntegrable):
            szego_project(form((-1j, 1, 1.0), constant=2.0))


class TestInnerProduct:
    def test_cauchy_kernel_norm(self):
        f = form((-1j, 1, 1.0))
        assert abs(inner_product(f, f) - np.pi) < 1e-14

    def test_norm_positive(self, rng):
        for _ in range(5):
            f = random_form(rng)
            val = inner_product(f, f)
            assert abs(val.imag) < 1e-12 * abs(val)
            assert val.real > 0

    def test_weighted_pair(self):
        f = form((-1j, 1, 1j))
        g = form((-1j, 1, 2j))
        assert abs(inner_product(f, g) - 2 * np.pi) < 1e-13

    def test_hermitian_symmetry(self, rng):
        for _ in range(10):
            f = random_form(rng, max_poles=4)
            g = random_form(rng, max_poles=4)
            a = inner_product(f, g)
            b = inner_product(g, f)
            assert abs(a - np.conj(b)) < 1e-12 * max(1.0, abs(a))

    def test_half_plane_orthogonality_exact(self, rng):
        f = random_form(rng, half_plane="lower")
        g = random_form(rng, half_plane="upper")
        assert inner_product(f, g) == 0

    def test_requires_l2(self):
        with pytest.raises(NotSquareIntegrable):
            inner_product(form((-1j, 1, 1.0), constant=1.0), form((-1j, 1, 1.0)))

    @pytest.mark.parametrize("f, g", [
        (ZERO, form((-1j, 1, 2.0), (1 + 2j, 1, 1j))),
        (form((-1j, 1, 2.0), (1 + 2j, 1, 1j)), ZERO),
        (ZERO, form((-1j, 2, 1.0), (2 + 1j, 1, 1.0))),
        (form((-1j, 2, 1.0), (2 + 1j, 1, 1.0)), ZERO),
        (ZERO, ZERO),
    ], ids=["zero-simple", "simple-zero", "zero-order2", "order2-zero",
            "zero-zero"])
    def test_zero_pairs_to_zero(self, f, g):
        val = inner_product(f, g)
        assert type(val) is complex and val == 0j

    def test_residues_match_quadrature(self, rng):
        # the residue computation against full-line adaptive quadrature
        for _ in range(200):
            f = random_form(rng, max_poles=3)
            g = random_form(rng, max_poles=3)
            exact = inner_product(f, g)
            approx = quad_inner(f, g)
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))

    def test_simple_poles_correctly_rounded(self):
        # the first draws of acceptance criterion 3: clustered poles, whose
        # pairings <u, phi_j> and <phi_j, phi_j> cancel strongly; each must
        # be the rounding of the exact residue sum over the same kernel
        rng = np.random.default_rng(20240817)
        for trial in range(10):
            params = random_params(rng, 2 + trial % 7)
            u = u_rational(params)
            for phi in eigenfunctions(spectral_decompose(params)):
                for f, g in ((u, phi), (phi, phi)):
                    val = inner_product(f, g)
                    with mpmath.workdps(80):
                        mpc = mpmath.mpc
                        kern = cauchy_kernel([mpc(p) for p, _, _ in f.terms],
                                             [mpc(q) for q, _, _ in g.terms])
                        exact = 2j * mpmath.pi * mp_pairing(
                            [mpc(c) for _, _, c in f.terms],
                            [mpc(c) for _, _, c in g.terms], kern)
                        err = abs(mpc(val) - exact) / max(1, abs(exact))
                    assert err <= 4.5e-16


class TestCauchyKernel:
    LOWER = [-1j, 2.0 - 0.5j, -3.0 - 2.0j]
    UPPER = [1j, 1.5 + 0.25j]

    @pytest.mark.parametrize("ps, qs, weight", [(LOWER, LOWER, 1),
                                                (UPPER, UPPER, -1),
                                                (LOWER, UPPER, 0),
                                                (UPPER, LOWER, 0)])
    def test_residue_weights(self, ps, qs, weight):
        kern = cauchy_kernel(ps, qs)
        for p, row in zip(ps, kern):
            for q, k in zip(qs, row):
                # mixed lists hold the coincident pair conj(1j) = -1j, whose
                # entry is an exact 0 without a division by zero
                assert k == (weight / (q.conjugate() - p) if weight else 0)

    def test_mpmath_entries_match_doubles(self, rng):
        for _ in range(20):
            ps = [p for p, _, _ in random_form(rng, max_order=1).terms]
            qs = [q for q, _, _ in random_form(rng, max_order=1).terms]
            doubles = cauchy_kernel(ps, qs)
            with mpmath.workdps(MP_DPS):
                exact = cauchy_kernel([mpmath.mpc(p) for p in ps],
                                      [mpmath.mpc(q) for q in qs])
                for drow, erow in zip(doubles, exact):
                    for d, e in zip(drow, erow):
                        assert abs(d - e) <= 1e-15 * abs(e)


class TestEvaluate:
    def test_scalar(self):
        assert abs(evaluate(form((-1j, 1, 1j)), 0.0) - 1.0) < 1e-15

    def test_profile_peak(self):
        u = form((-1j, 1, 1j), (1j, 1, -1j))
        assert abs(2 * np.real(evaluate(szego_project(u), 0.0)) - 2.0) < 1e-14

    def test_decay(self, rng):
        f = random_form(rng)
        norm = sum(abs(c) for _, _, c in f.terms)
        for x in (1e8, -1e8):
            assert abs(evaluate(f, x)) < 1e-7 * norm

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            evaluate(form((-1j, 1, 1.0)), -1j * (1 + 1e-12))

    def test_pole_proximity_in_array(self):
        f = form((3.0 - 1j, 1, 1.0), (-1j, 2, 1.0))
        xs = np.array([0.0, 2.0, -1j * (1 + 1e-12), 5.0])
        with pytest.raises(PoleProximity, match="within 1e-09 of pole"):
            evaluate(f, xs)
        assert evaluate(f, np.delete(xs, 2)).shape == (3,)


def test_add_and_conj_reflect(rng):
    f = random_form(rng, max_poles=3)
    g = random_form(rng, max_poles=3)
    s = add(f, g)
    for x in rng.uniform(-5, 5, 10):
        assert abs(evaluate(s, x) - evaluate(f, x) - evaluate(g, x)) < 1e-12
        assert abs(evaluate(conj_reflect(f), x) - np.conj(evaluate(f, x))) < 1e-12
