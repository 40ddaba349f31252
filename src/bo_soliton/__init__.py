"""Multi-soliton machinery for the Benjamin-Ono equation on the line.

The names below are loaded from their submodule when first read (PEP 562),
so that importing one module, or running a CLI command that needs only
some, does not load the rest: scipy's compiled LAPACK and BLAS extensions
come in with the first LAPACK call and its compiled pocketfft with the
first PDE step (:mod:`bo_soliton._lapack`, which never imports scipy.linalg
or scipy.fft), and mpmath with :mod:`oracle`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "action_angle": """ActionAngles aa_from_spectral evolve_aa
        explicit_solution forward_map inverse_map m_from_aa pi_u_resolvent""",
    "invariants": """e1_quadrature e_n_from_spectrum h_lambda omega_matrix
        poisson_bracket_table symplectomorphism_check""",
    "oracle": "h_lambda_resolvent",
    "pde": "PdeConfig compare run step",
    "profiles": "GridField SolitonParameters profile torus_potential",
    "spectral": "SpectralData spectral_decompose verify_m_matrix",
}
_SUBMODULES = ("action_angle", "errors", "invariants", "oracle", "pde",
               "profiles", "spectral", "tableio")
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(set(_HOME) | set(_SUBMODULES))


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
