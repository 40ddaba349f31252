"""The library names ``perfbench`` imports must keep resolving.

The benchmark runs the committed library from its checkout; a name moved or
renamed here would otherwise surface only in ``perfbench/selftest.py``.
Every leaf error class must also be raised under ``src/bo_soliton`` or be
imported by the benchmark, so that dead error classes do not pile up.
"""

import ast
import importlib
from pathlib import Path

from bo_soliton import errors

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


def raised_names(path):
    """Names of the classes that ``raise`` statements in a file raise."""
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield getattr(exc, "id", getattr(exc, "attr", None))


def test_every_leaf_error_is_raised_or_imported_by_the_benchmark():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.BOSolitonError)]
    leaves = {c.__name__ for c in classes
              if not any(d is not c and issubclass(d, c) for d in classes)}
    raised = {name for path in Path(errors.__file__).parent.glob("*.py")
              for name in raised_names(path)}
    imported = {name for mod, name in BENCHMARK_NAMES
                if mod == "bo_soliton.errors"}
    dead = sorted(leaves - raised - imported)
    assert not dead, f"error classes nothing raises: {dead}"
