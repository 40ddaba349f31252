"""Randomized invariant suite behind the ``validate`` CLI subcommand.

Each check draws seeded random parameter sets, evaluates one structural
identity through its defect function, and reports the worst deviation
against its tolerance, with the trial and N that produced it.  All checks
are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action_angle import aa_from_spectral, explicit_solution, inverse_map
from .invariants import (
    canonical_form_matrix,
    e_n_from_spectrum,
    h_lambda,
    poisson_bracket_table,
    symplectomorphism_check,
)
from .oracle import h_lambda_resolvent, wu_defect
from .pde import PdeConfig, compare, run
from .profiles import GridField, SolitonParameters, cauchy_kernel
from .spectral import spectral_decompose, verify_m_matrix

# check name -> tolerance, in report order
CHECKS = {
    "roundtrip": 1e-7,
    "wu_identity": 1e-9,
    "m_formula": 1e-8,
    "im_m_negative": 1e-9,
    "energy_dual": 1e-4,
    "h_lambda_dual": 1e-9,
    "symplectic_defect": 1e-4,
    "poisson_table": 1e-4,
    "pde_compare": 1e-3,
}
# random_params: |x| <= XBOX, eta in ETA_RANGE, pairwise distances >= GAP
XBOX, ETA_RANGE, GAP = 5.0, (0.2, 5.0), 0.1


@dataclass(frozen=True)
class CheckResult:
    """Worst defect of one check, and the trial index and N that gave it.

    ``trial`` counts the draws of the check's own loop: the main loop for
    the first six checks, the finite-difference loop for the bracket checks.
    """

    name: str
    worst: float
    tol: float
    trial: int
    n: int

    @property
    def passed(self):
        return self.worst <= self.tol


def random_params(rng, n):
    """Draw N parameters as XBOX, ETA_RANGE and GAP say, all N anew until
    GAP holds."""
    while True:
        zs = rng.uniform(-XBOX, XBOX, n) - 1j * rng.uniform(*ETA_RANGE, n)
        if not np.triu(np.abs(zs[:, None] - zs) < GAP, 1).any():
            return SolitonParameters(tuple(zs))


def roundtrip_defect(params, aa):
    """Max deviation of Phi_N^{-1}(aa) from ``params`` and of Phi_N of it
    from ``aa``, where ``aa`` is Phi_N(params)."""
    back = inverse_map(aa)
    aa2 = aa_from_spectral(spectral_decompose(back))
    return max(float(np.abs(back.zs_array - params.zs_array).max()),
               np.abs(aa2.rs - aa.rs).max(),
               np.abs(aa2.alphas - aa.alphas).max())


def im_m_top(m):
    """Top eigenvalue of Im M = (M - M*)/2i, which must not be positive."""
    return float(np.linalg.eigvalsh((m - m.conj().T) / 2j).max())


def energy_defect(params, sd):
    """Relative gap between E_1 from the spectrum and from the poles.

    E_1 = (1/2)<|D|u, u> - (1/3) integral of u^3 closes in the upper
    half-plane over K = cauchy_kernel(z, z), K_jk = 1/(conj z_k - z_j):
    (1/2)<|D|u, u> = <D Pi u, Pi u> = -2 pi sum_jk K_jk^2 and the cubic
    integral is -12 pi Re sum_k c_k^2, c_k = sum_j K_jk.
    """
    kern = np.array(cauchy_kernel(params.zs, params.zs))
    c = kern.sum(axis=0)
    e_poles = 2 * np.pi * (2 * np.sum(c ** 2).real - np.sum(kern ** 2).real)
    e_spec = e_n_from_spectrum(sd, 1)
    return abs(e_spec - e_poles) / abs(e_spec)


def h_lambda_defect(params, sd, probes):
    """Max gap between H_lambda from the spectrum and by the resolvent solve,
    relative to 1 + |H_lambda|, over the probes not within 1e-3 of a pole."""
    worst = 0.0
    for lam in probes:
        if np.min(np.abs(lam + sd.lambdas)) < 1e-3:
            continue
        h_pf = h_lambda(sd, lam)
        h_res = h_lambda_resolvent(params, lam)
        worst = max(worst, abs(h_pf - h_res) / (1 + abs(h_pf)))
    return worst


def bracket_defect(params):
    """Max entry of the Poisson table of (I, gamma) minus [[0, I], [-I, 0]]."""
    table = poisson_bracket_table(params)
    return float(np.abs(table - canonical_form_matrix(params.n)).max())


def run_validation(nmax, trials, seed, with_pde=False):
    """One CheckResult per entry of CHECKS (pde_compare only ``with_pde``)."""
    rng = np.random.default_rng(seed)
    worst = {}

    def record(name, defect, trial, n):
        if name not in worst or defect > worst[name].worst:
            worst[name] = CheckResult(name, defect, CHECKS[name], trial, n)

    for trial in range(trials):
        n = int(rng.integers(1, nmax + 1))
        params = random_params(rng, n)
        probes = [float(rng.uniform(0.5, 10.0)) for _ in range(3)]
        sd = spectral_decompose(params)
        record("roundtrip", roundtrip_defect(params, aa_from_spectral(sd)),
               trial, n)
        record("wu_identity", wu_defect(params, sd), trial, n)
        record("m_formula", verify_m_matrix(sd), trial, n)
        record("im_m_negative", im_m_top(sd.m_matrix), trial, n)
        record("energy_dual", energy_defect(params, sd), trial, n)
        record("h_lambda_dual", h_lambda_defect(params, sd, probes), trial, n)

    for trial in range(min(trials, 5)):
        n = int(rng.integers(1, min(nmax, 3) + 1))
        params = random_params(rng, n)
        record("symplectic_defect", symplectomorphism_check(params), trial, n)
        record("poisson_table", bracket_defect(params), trial, n)

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
        record("pde_compare", l2_rel, 0, params.n)

    return [worst[name] for name in CHECKS if name in worst]
