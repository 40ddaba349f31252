"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Random draws use a fixed seed so every run checks the identical instances.
"""

import time

import numpy as np
import pytest

from bo_soliton.action_angle import (
    ActionAngles,
    aa_from_spectral,
    evolve_aa,
    explicit_solution,
    inverse_map,
    pi_u_resolvent,
)
from bo_soliton.invariants import (
    e1_quadrature,
    e_n_from_spectrum,
    h_lambda,
    symplectomorphism_check,
)
from bo_soliton.oracle import eigenfunctions, pi_u
from bo_soliton.pde import PdeConfig, compare, run
from bo_soliton.profiles import (
    GridField,
    SolitonParameters,
    profile_values,
    torus_potential,
)
from bo_soliton.rational import evaluate, inner_product
from bo_soliton.spectral import spectral_decompose, verify_m_matrix
from bo_soliton.validation import (
    bracket_defect,
    im_m_top,
    random_params,
    roundtrip_defect,
)

SEED = 20240817


def report(number, ok, detail):
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'}  ({detail})")
    return ok


@pytest.fixture(scope="module")
def sweep():
    """Criterion-2 instance sweep, shared by criteria 2, 3, and 4."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    records = []
    for trial in range(100):
        n = 2 + trial % 7
        params = random_params(rng, n)
        sd = spectral_decompose(params)
        records.append((params, sd,
                        roundtrip_defect(params, aa_from_spectral(sd))))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pde_runs():
    """Criterion-6 runs at the three steps plus a fine reference."""
    params = SolitonParameters((-10.0 - 1j, 10.0 - 0.5j))
    aa0 = aa_from_spectral(spectral_decompose(params))
    t0 = time.perf_counter()
    snaps = {}
    for dt in (4e-3, 2e-3, 1e-3, 2.5e-4):
        cfg = PdeConfig(domain_half_width=400.0, modes=2 ** 14, dt=dt,
                        t_end=1.0, snapshot_dt=0.1)
        snaps[dt] = run(params, cfg)
    return params, aa0, snaps, time.perf_counter() - t0


def test_criterion_1_one_soliton_anchor_chain():
    t0 = time.perf_counter()
    worst = 0.0
    for x0, c in ((0.0, 1.0), (2.5, 0.7), (-1.2, 3.0)):
        sd = spectral_decompose(SolitonParameters((x0 - 1j / c,)))
        worst = max(
            worst,
            abs(sd.lambdas[0] + c / 2),
            abs(sd.gammas[0] - x0),
            abs(sd.actions[0] + c * np.pi),
            abs(sd.m_matrix[0, 0] - (x0 - 1j / c)),
            abs(e_n_from_spectrum(sd, 1) + c * c * np.pi / 2),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    assert report(1, ok, f"max defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_roundtrip(sweep):
    records, elapsed = sweep
    worst = 0.0
    for *_, defect in records:
        worst = max(worst, defect)
    ok = worst < 1e-7 and elapsed < 30.0
    assert report(2, ok, f"max defect {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_wu_identity(sweep):
    from bo_soliton.oracle import u_rational

    records, _ = sweep
    worst = 0.0
    for params, sd, *_ in records:
        u = u_rational(params)
        for lam, phi in zip(sd.lambdas, eigenfunctions(sd)):
            pairing = inner_product(u, phi)
            norm2 = inner_product(phi, phi).real
            defect = abs(abs(pairing) ** 2 + 2 * np.pi * lam * norm2)
            worst = max(worst, defect / (2 * np.pi * abs(lam) * norm2))
    ok = worst < 1e-9
    assert report(3, ok, f"max relative defect {worst:.2e}")


def test_criterion_4_m_matrix_dual_construction(sweep):
    records, _ = sweep
    worst_entry = worst_eig = worst_nsd = 0.0
    for params, sd, *_ in records:
        worst_entry = max(worst_entry, verify_m_matrix(sd))
        eig = np.array(sorted(np.linalg.eigvals(sd.m_matrix),
                              key=lambda z: (z.real, z.imag)))
        zs = np.array(sorted(params.zs, key=lambda z: (z.real, z.imag)))
        worst_eig = max(worst_eig, np.abs(eig - zs).max())
        worst_nsd = max(worst_nsd, im_m_top(sd.m_matrix))
    ok = worst_entry < 1e-8 and worst_eig < 1e-8 and worst_nsd < 1e-9
    assert report(4, ok, f"entry {worst_entry:.2e}, eig {worst_eig:.2e}, "
                         f"Im M {worst_nsd:.2e}")


def test_criterion_5_two_path_evolution():
    rng = np.random.default_rng(SEED + 5)
    xs = np.linspace(-50, 50, 2001)
    worst = 0.0
    for n in range(1, 7):
        params = random_params(rng, n)
        aa = aa_from_spectral(spectral_decompose(params))
        for t in (0.1, 1.0, 10.0):
            u1 = explicit_solution(aa, t, xs)
            u2 = profile_values(inverse_map(evolve_aa(aa, t)), xs)
            worst = max(worst, np.abs(u1 - u2).max())
    ok = worst < 1e-9
    assert report(5, ok, f"max sup-norm gap {worst:.2e}")


def test_criterion_6_pde_cross_validation(pde_runs):
    params, aa0, snaps, elapsed = pde_runs
    errs = {}
    for dt, series in snaps.items():
        t_final, field = series[-1]
        exact = GridField(field.x0, field.dx,
                          explicit_solution(aa0, t_final, field.xs()))
        errs[dt] = compare(field, exact)[0]
    # temporal order from self-convergence against the fine reference
    ref = snaps[2.5e-4][-1][1]
    self_errs = {dt: compare(snaps[dt][-1][1], ref)[0]
                 for dt in (4e-3, 2e-3, 1e-3)}
    order = np.log(self_errs[4e-3] / self_errs[1e-3]) / np.log(4.0)
    ok = errs[1e-3] < 1e-3 and 3.5 < order < 4.5 and elapsed < 300.0
    assert report(6, ok, f"explicit gap {errs[1e-3]:.2e}, dt-order "
                         f"{order:.2f}, {elapsed:.0f}s")


def test_criterion_7_conservation(pde_runs):
    _, _, snaps, _ = pde_runs
    series = snaps[1e-3]
    energies = [e1_quadrature(f, periodic=True) for _, f in series]
    masses = [f.values.sum() * f.dx for _, f in series]
    e_drift = (max(energies) - min(energies)) / abs(energies[0])
    m_drift = (max(masses) - min(masses)) / abs(masses[0])

    rng = np.random.default_rng(SEED + 7)
    aa = ActionAngles(2 * np.pi * np.array([-2.2, -1.0, -0.3]),
                      np.array([0.5, -1.0, 2.0]))
    lams = rng.uniform(0.5, 10.0, 5)
    flow_drift = 0.0
    for t in (0.1, 1.0, 10.0):
        aa_t = evolve_aa(aa, t)
        for n in range(4):
            flow_drift = max(flow_drift, abs(
                e_n_from_spectrum(aa_t, n) - e_n_from_spectrum(aa, n)))
        for lam in lams:
            flow_drift = max(flow_drift, abs(
                h_lambda(aa_t, lam) - h_lambda(aa, lam)))
    ok = e_drift < 1e-4 and m_drift < 1e-8 and flow_drift <= 1e-12
    assert report(7, ok, f"E drift {e_drift:.2e}, mass drift {m_drift:.2e}, "
                         f"flow drift {flow_drift:.2e}")


def test_criterion_8_symplectic_structure():
    rng = np.random.default_rng(SEED + 8)
    worst_defect = worst_table = 0.0
    for n in (1, 2, 3):
        for _ in range(10):
            params = random_params(rng, n)
            worst_defect = max(worst_defect, symplectomorphism_check(params))
            worst_table = max(worst_table, bracket_defect(params))
    ok = worst_defect < 1e-4 and worst_table < 1e-4
    assert report(8, ok, f"pullback defect {worst_defect:.2e}, "
                         f"bracket table {worst_table:.2e}")


def test_criterion_9_resolvent_inversion():
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for n in range(1, 9):
        params = random_params(rng, n)
        sd = spectral_decompose(params)
        f = pi_u(params)
        xs = rng.uniform(-50, 50, 50)
        vals = pi_u_resolvent(sd, xs)
        direct = np.array([evaluate(f, x) for x in xs])
        worst = max(worst, np.abs(vals - direct).max())
    ok = worst < 1e-9
    assert report(9, ok, f"max gap {worst:.2e}")


def _random_even_params(rng, n):
    zs = []
    remaining = n
    if remaining % 2 == 1:
        zs.append(complex(0.0, -rng.uniform(0.2, 3.0)))
        remaining -= 1
    while remaining > 0:
        x = rng.uniform(0.3, 5.0)
        eta = rng.uniform(0.2, 3.0)
        zs.extend([complex(x, -eta), complex(-x, -eta)])
        remaining -= 2
    return SolitonParameters(tuple(zs))


def test_criterion_10_even_profiles_have_zero_angles():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for trial in range(20):
        n = 1 + trial % 5
        sd = spectral_decompose(_random_even_params(rng, n))
        worst = max(worst, np.abs(sd.gammas).max())
    ok = worst < 1e-9
    assert report(10, ok, f"max |gamma| {worst:.2e}")


def test_criterion_11_torus_shift_invariance():
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for n in (1, 2, 3, 4):
        params = random_params(rng, n)
        a = torus_potential(params, 512)
        b = torus_potential(params.shifted(2 * np.pi), 512)
        worst = max(worst, float(np.abs(a.values - b.values).max()))
    ok = worst < 1e-10
    assert report(11, ok, f"shift defect {worst:.2e}")


def test_criterion_11_torus_mean():
    # v = 2 Re[-w Qt'(w)/Qt(w)] has mean -2 x (mapped roots inside |w| < 1);
    # the reflected roots exp(i conj z_j) give v + 2N, whose mean is 2N
    rng = np.random.default_rng(SEED + 11)
    m = 512
    eiy = np.exp(2j * np.pi * np.arange(m) / m)
    worst_v = worst_2n = worst_pointwise = 0.0
    for n in (1, 2, 3, 4):
        params = random_params(rng, n)
        v = torus_potential(params, m).values
        inside = sum(abs(np.exp(1j * z)) < 1 for z in params.zs)
        worst_v = max(worst_v, abs(float(v.mean()) + 2.0 * inside))
        v_reflected = 2 * sum(eiy / (eiy - np.exp(1j * z.conjugate()))
                              for z in params.zs).real
        worst_2n = max(worst_2n, abs(float(v_reflected.mean()) - 2.0 * n))
        worst_pointwise = max(
            worst_pointwise, float(np.abs(v_reflected - (v + 2.0 * n)).max()))
    ok = worst_v < 1e-6 and worst_2n < 1e-6 and worst_pointwise < 1e-12
    assert report(11, ok, f"mean-vs-inside-roots defect {worst_v:.2e}, "
                          f"reflected mean-vs-2N defect {worst_2n:.2e}, "
                          f"reflected-vs-(v+2N) defect {worst_pointwise:.2e}")


def test_torus_mean_vanishes():
    # the mode-zero coefficient the construction actually produces
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for n in (1, 2, 3, 4):
        params = random_params(rng, n)
        v = torus_potential(params, 512)
        worst = max(worst, abs(float(v.values.mean())))
    assert worst < 1e-8
