"""The library names ``perfbench`` imports must keep resolving.

The benchmark runs the committed library from its checkout; a name moved or
renamed here would otherwise surface only in ``perfbench/selftest.py``.
"""

import importlib

BENCHMARK_NAMES = (
    ("bo_soliton.spectral", "spectral_decompose"),
    ("bo_soliton.spectral", "verify_m_matrix"),
    ("bo_soliton.action_angle", "aa_from_spectral"),
    ("bo_soliton.action_angle", "inverse_map"),
    ("bo_soliton.action_angle", "evolve_aa"),
    ("bo_soliton.action_angle", "explicit_solution"),
    ("bo_soliton.profiles", "profile_values"),
    ("bo_soliton.profiles", "SolitonParameters"),
    ("bo_soliton.pde", "run"),
    ("bo_soliton.pde", "PdeConfig"),
    ("bo_soliton.tableio", "write_csv"),
    ("bo_soliton.tableio", "fmt"),
    ("bo_soliton.validation", "random_params"),
    ("bo_soliton.errors", "BOSolitonError"),
    ("bo_soliton.errors", "GramIllConditioned"),
    # raised by an injected defect in the benchmark's self-test
    ("bo_soliton.errors", "InvariantViolation"),
)


def test_benchmark_names_resolve():
    missing = [f"{mod}.{name}" for mod, name in BENCHMARK_NAMES
               if not callable(getattr(importlib.import_module(mod), name,
                                       None))]
    assert not missing, f"names the benchmark calls are gone: {missing}"
