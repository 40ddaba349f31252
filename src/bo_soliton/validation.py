"""Randomized invariant suite behind the ``validate`` CLI subcommand.

Each check draws seeded random parameter sets, evaluates one structural
identity, and reports the worst deviation against its tolerance.  All checks
are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from .action_angle import aa_from_spectral, explicit_solution, inverse_map
from .invariants import (
    e1_quadrature,
    e_n_from_spectrum,
    h_lambda,
    h_lambda_resolvent,
    poisson_bracket_table,
    symplectomorphism_check,
)
from .pde import PdeConfig, compare, run
from .profiles import GridField, SolitonParameters, profile
from .rational import MP_DPS
from .spectral import (
    cauchy_entries,
    mp_pairing,
    spectral_decompose,
    verify_m_matrix,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self):
        return self.worst <= self.tol


def random_params(rng, n, xbox=5.0, eta_range=(0.2, 5.0), gap=0.1):
    """Draw N parameters with |x| <= xbox, eta in range, pairwise gaps >= gap."""
    while True:
        xs = rng.uniform(-xbox, xbox, n)
        etas = rng.uniform(eta_range[0], eta_range[1], n)
        zs = xs - 1j * etas
        ok = all(abs(zs[i] - zs[j]) >= gap
                 for i in range(n) for j in range(i + 1, n))
        if ok:
            return SolitonParameters(tuple(zs))


def _aa_distance(a, b):
    return max(np.abs(a.rs - b.rs).max(), np.abs(a.alphas - b.alphas).max())


def _params_distance(a, b):
    za = np.array(a.zs)
    zb = np.array(b.zs)
    return float(np.abs(za - zb).max())


def _wu_defect(params, sd):
    """Max relative defect of |<u, phi_j>|^2 = 2 pi |lambda_j| <phi_j, phi_j>.

    Pairs the MP_DPS-digit eigenfunction coefficients by residues in the
    Cauchy kernel; <u, phi_j> = <Pi u, phi_j>, and Pi u has coefficients
    (i, ..., i) in the basis 1/(x - z_r).
    """
    worst = 0.0
    with mpmath.workdps(MP_DPS):
        kern = cauchy_entries([mpmath.mpc(v) for v in params.zs], mpmath.pi)
        pi_u = [1j] * params.n
        for lam, col in zip(sd.lambdas, sd.eigen_coeffs):
            pairing = mp_pairing(pi_u, col, kern)
            norm2 = mpmath.re(mp_pairing(col, col, kern))
            scale = 2 * mpmath.pi * abs(lam) * norm2
            worst = max(worst, float(abs(abs(pairing) ** 2 - scale) / scale))
    return worst


def run_validation(nmax, trials, seed, with_pde=False, inject_defect=False):
    rng = np.random.default_rng(seed)
    results = []

    worst_round = 0.0
    worst_wu = 0.0
    worst_m = 0.0
    worst_imm = 0.0
    worst_energy = 0.0
    worst_h = 0.0
    for trial in range(trials):
        n = int(rng.integers(1, nmax + 1))
        params = random_params(rng, n)
        sd = spectral_decompose(params)
        aa = aa_from_spectral(sd)
        if inject_defect and trial == 0:
            aa = type(aa)(aa.rs, aa.alphas + 1e-3)
        back = inverse_map(aa)
        worst_round = max(worst_round, _params_distance(params, back))
        aa2 = aa_from_spectral(spectral_decompose(back))
        worst_round = max(worst_round, _aa_distance(aa, aa2))

        worst_wu = max(worst_wu, _wu_defect(params, sd))

        worst_m = max(worst_m, verify_m_matrix(sd))
        im_m = (sd.m_matrix - sd.m_matrix.conj().T) / 2j
        worst_imm = max(worst_imm, float(np.linalg.eigvalsh(im_m).max()))

        e_spec = e_n_from_spectrum(sd, 1)
        grid = profile(params, -1e4, 2e4 / 2 ** 19, 2 ** 19)
        e_quad = e1_quadrature(grid)
        worst_energy = max(worst_energy, abs(e_spec - e_quad) / abs(e_spec))

        for _ in range(3):
            lam_probe = float(rng.uniform(0.5, 10.0))
            if np.min(np.abs(lam_probe + sd.lambdas)) < 1e-3:
                continue
            h_pf = h_lambda(sd, lam_probe)
            h_res = h_lambda_resolvent(params, lam_probe)
            worst_h = max(worst_h, abs(h_pf - h_res) / (1 + abs(h_pf)))

    results.append(CheckResult("roundtrip", worst_round, 1e-7))
    results.append(CheckResult("wu_identity", worst_wu, 1e-9))
    results.append(CheckResult("m_formula", worst_m, 1e-8))
    results.append(CheckResult("im_m_negative", worst_imm, 1e-9))
    results.append(CheckResult("energy_dual", worst_energy, 1e-4))
    results.append(CheckResult("h_lambda_dual", worst_h, 1e-9))

    worst_sympl = 0.0
    worst_poisson = 0.0
    fd_trials = min(trials, 5)
    for _ in range(fd_trials):
        n = int(rng.integers(1, min(nmax, 3) + 1))
        params = random_params(rng, n)
        worst_sympl = max(worst_sympl, symplectomorphism_check(params))
        table = poisson_bracket_table(params)
        expected = np.zeros_like(table)
        expected[:n, n:] = np.eye(n)
        expected[n:, :n] = -np.eye(n)
        worst_poisson = max(worst_poisson, float(np.abs(table - expected).max()))
    results.append(CheckResult("symplectic_defect", worst_sympl, 1e-4))
    results.append(CheckResult("poisson_table", worst_poisson, 1e-4))

    if with_pde:
        params = SolitonParameters((0.0 - 1j,))
        cfg = PdeConfig(domain_half_width=200.0, modes=2 ** 12, dt=2e-3,
                        t_end=0.5, snapshot_dt=0.5)
        snaps = run(params, cfg)
        t_final, field = snaps[-1]
        sd = spectral_decompose(params)
        aa0 = aa_from_spectral(sd)
        exact = GridField(field.x0, field.dx,
                          explicit_solution(aa0, t_final, field.xs()))
        l2_rel, _ = compare(field, exact)
        results.append(CheckResult("pde_compare", l2_rel, 1e-3))

    return results
