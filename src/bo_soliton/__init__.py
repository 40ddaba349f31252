"""Multi-soliton machinery for the Benjamin-Ono equation on the line."""

from .action_angle import (
    ActionAngles,
    aa_from_spectral,
    evolve_aa,
    explicit_solution,
    forward_map,
    inverse_map,
    m_from_aa,
    pi_u_resolvent,
)
from .invariants import (
    e1_quadrature,
    e_n_from_spectrum,
    h_lambda,
    omega_matrix,
    poisson_bracket_table,
    symplectomorphism_check,
)
from .oracle import h_lambda_resolvent, pi_u, u_rational
from .pde import PdeConfig, compare, run, step, write_snapshots
from .profiles import GridField, SolitonParameters, profile, torus_potential
from .rational import (
    PoleResidueForm,
    derivative,
    evaluate,
    inner_product,
    multiply,
    multiply_by_x,
    pf_decompose,
    szego_project,
)
from .spectral import SpectralData, spectral_decompose, verify_m_matrix

__version__ = "0.1.0"
