"""What each entry point loads, checked in a fresh interpreter.

scipy.linalg costs 0.15-0.2 s of start-up and mpmath some more.  No command
imports scipy.linalg or scipy.fft: the commands that call LAPACK load only
scipy's two compiled LAPACK and BLAS extensions, ``pde`` only its compiled
pocketfft (``bo_soliton._lapack``), and only ``validate`` loads mpmath.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bo_soliton

SRC = Path(bo_soliton.__file__).resolve().parent.parent
WORKER = SRC.parent / "perfbench" / "worker.py"


def run_fresh(code, cwd):
    """Run ``code`` in a new interpreter with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_benchmark_imports_leave_lapack_to_the_first_call(tmp_path):
    # the module-level imports of the benchmark worker, then one decompose
    tree = ast.parse(WORKER.read_text())
    imports = [ast.unparse(node) for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    assert "from bo_soliton import pde, tableio" in imports
    code = "\n".join(imports + [
        "import sys",
        "LINALG = {'scipy.linalg', 'scipy.linalg._flapack',"
        " 'scipy.linalg._fblas', 'scipy.fft._pocketfft.pypocketfft'}",
        "print(sorted(LINALG & set(sys.modules)))",
        "from bo_soliton.profiles import SolitonParameters",
        "from bo_soliton.spectral import spectral_decompose",
        "spectral_decompose(SolitonParameters((-1j, 1 - 2j)))",
        "print(sorted(LINALG & set(sys.modules)))",
    ])
    assert run_fresh(code, tmp_path).splitlines() == [
        "[]", "['scipy.linalg._fblas', 'scipy.linalg._flapack']"]


def test_lapack_commands_do_not_import_scipy_linalg(tmp_path):
    (tmp_path / "p.csv").write_text("x,eta\n-3,1\n3,0.5\n")
    code = "\n".join([
        "import sys",
        "from bo_soliton.cli import main",
        "assert main(['spectrum', 'p.csv', '--out', 's.csv']) == 0",
        "assert main(['evolve', 'p.csv', '--t1', '1', '--dt', '0.5',"
        " '--grid', '-5,5,11', '--outdir', 'f']) == 0",
        "assert main(['validate', '--n', '3', '--trials', '2']) == 0",
        "print(sorted({'scipy.linalg', 'scipy.linalg._flapack'}"
        " & set(sys.modules)))",
    ])
    last = run_fresh(code, tmp_path).splitlines()[-1]
    assert last == "['scipy.linalg._flapack']"
    assert (tmp_path / "s.csv").exists()
    assert (tmp_path / "f" / "frame_t1.0000.csv").exists()


def test_validate_loads_no_pole_residue_calculus(tmp_path):
    # validate runs the 40-digit references of oracle alone; the calculus
    # lives in the tests' polecalc, importable here, and rational is gone
    code = "\n".join([
        "import sys",
        f"sys.path.append({str(Path(__file__).resolve().parent)!r})",
        "from bo_soliton.cli import main",
        "assert main(['validate', '--n', '3', '--trials', '2']) == 0",
        "print(sorted({'bo_soliton.rational', 'polecalc', 'bo_soliton.oracle'}"
        " & set(sys.modules)))",
    ])
    last = run_fresh(code, tmp_path).splitlines()[-1]
    assert last == "['bo_soliton.oracle']"


def test_synth_and_torus_load_neither_lapack_nor_mpmath(tmp_path):
    (tmp_path / "p.csv").write_text("x,eta\n-3,1\n3,0.5\n")
    code = "\n".join([
        "import sys",
        "from bo_soliton.cli import main",
        "assert main(['synth', 'p.csv', '--grid', '-5,5,11',"
        " '--out', 'u.csv']) == 0",
        "assert main(['torus', 'p.csv', '--m', '16', '--out', 'v.csv']) == 0",
        "print(sorted({'scipy.linalg', 'scipy.linalg._flapack',"
        " 'scipy.linalg._fblas', 'scipy.fft._pocketfft.pypocketfft',"
        " 'mpmath'} & set(sys.modules)))",
    ])
    assert run_fresh(code, tmp_path).strip() == "[]"
    assert (tmp_path / "u.csv").exists() and (tmp_path / "v.csv").exists()


def test_pde_loads_pocketfft_alone(tmp_path):
    code = "\n".join([
        "import sys",
        "from bo_soliton.pde import PdeConfig, run",
        "from bo_soliton.profiles import SolitonParameters",
        "run(SolitonParameters((-1j,)), PdeConfig(domain_half_width=200.0,"
        " modes=256, dt=1e-3, t_end=2e-3, snapshot_dt=1e-3))",
        "print(sorted({'scipy.fft', 'scipy.fft._pocketfft.pypocketfft',"
        " 'scipy.linalg', 'scipy.linalg._flapack', 'scipy.linalg._fblas'}"
        " & set(sys.modules)))",
    ])
    assert run_fresh(code, tmp_path).strip() == (
        "['scipy.fft._pocketfft.pypocketfft']")
