"""Property tests over ``cli.main``: every run of ``synth``, ``spectrum``,
``evolve`` and ``torus`` ends in its files or in one typed line, and a
failed run leaves nothing behind.

The draws are params-CSV rows and flag values from a fixed list of float
spellings, each path absolute in a fresh temporary directory.  Out of
scope: argparse's own usage errors, which print a usage line first;
``validate``, whose FAIL report goes to stdout; and the public API, which
``test_api_properties`` covers.
"""

import contextlib
import csv
import io
import math
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bo_soliton.cli import main
from conftest import FINITE, POSITIVE, SPELLINGS
# the most seconds one example may take
TIME_CAP = 10.0

spelling = st.sampled_from(SPELLINGS)
# a file of rows of any spellings, or of distinct finite x and positive
# finite eta: with any spelling, nearly every file of 5 or 12 rows is
# refused as it is read
sound_row = st.tuples(st.sampled_from(FINITE), st.sampled_from(POSITIVE))
params_rows = st.sampled_from([1, 2, 3, 5, 12]).flatmap(lambda n: st.one_of(
    st.lists(st.tuples(spelling, spelling), min_size=n, max_size=n),
    st.lists(sound_row, min_size=n, max_size=n,
             unique_by=lambda r: float(r[0]))))
grid = st.builds("{},{},{}".format, spelling, spelling, st.integers(2, 11))


@st.composite
def command(draw):
    """The argv of one run, its paths relative to its directory."""
    name = draw(st.sampled_from(["synth", "spectrum", "evolve", "torus"]))
    argv = [name, "params.csv"]
    if name in ("synth", "evolve"):
        argv += ["--grid", draw(grid)]
    if name == "evolve":
        argv += ["--outdir", draw(st.sampled_from(["frames", "a/b/frames"])),
                 "--t1", draw(st.sampled_from(["0", "1", "-1", "2.5", "nan"])),
                 "--dt", draw(st.sampled_from(["0", "0.5", "-1", "1e-5"]))]
    else:
        argv += ["--out", "out.csv"]
    if name == "torus":
        argv += ["--m", str(draw(st.integers(-1, 16)))]
    # --plot-script: none, a writable path, or a path in a missing directory
    script = draw(st.sampled_from([None, "p.py", "nodir/p.py"]))
    if script and name != "spectrum":
        argv += ["--plot-script", script]
    return argv


def run(directory, rows, argv):
    """``main`` on ``argv``, its paths made absolute under ``directory``;
    the exit code and the text of stderr."""
    with open(directory / "params.csv", "w", newline="") as fh:
        fh.write("x,eta\n" + "".join(f"{x},{eta}\n" for x, eta in rows))
    paths = {"params.csv", "out.csv", "p.py", "nodir/p.py", "frames",
             "a/b/frames"}
    argv = [str(directory / a) if a in paths else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(rows=params_rows, argv=command())
def test_a_run_ends_in_its_files_or_one_typed_line(rows, argv):
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        start = time.perf_counter()
        code, err = run(directory, rows, argv)
        assert time.perf_counter() - start < TIME_CAP
        written = sorted(str(p.relative_to(directory))
                         for p in directory.rglob("*"))
        assert not [p for p in written if p.endswith(".tmp")]
        assert code in {0, 2, 3, 4}
        if code != 0:
            assert "Traceback" not in err
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert written == ["params.csv"], err
            return
        for path in written:
            if path.endswith(".csv") and path != "params.csv":
                with open(directory / path, newline="") as fh:
                    values = [v for row in list(csv.reader(fh))[1:]
                              for v in row]
                assert all(math.isfinite(float(v)) for v in values), path
