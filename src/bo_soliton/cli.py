"""Command-line front end.

Subcommands: synth, spectrum, evolve, validate, torus.  All tables are CSV
with a header row, floats printed with 17 significant digits, LF line
endings; every file, plot scripts included, is written atomically (temp
file + rename) by :mod:`bo_soliton.tableio`, and ``main`` commits every
file of a run together: a failed command leaves every output path as it
was.  A value may be any float spelling, -1e-3 and -inf included; the
library, not this module, owns float limits.

Exit codes: 0 success, 2 usage or parse error or an unwritable output,
3 domain invariant violation, 4 numerical failure.  Verbosity via
BO_SOLITON_LOG in {error, debug}; any other value means error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import logging
import math
import os
import sys
import time

import numpy as np

from .action_angle import ActionAngles, aa_from_spectral, evolve_aa, inverse_map
from .errors import DomainError, NumericalError
from .profiles import SolitonParameters, profile_values, torus_potential
from .spectral import spectral_decompose
from .tableio import all_or_none, write_plot_script, write_xy

# the most samples --grid or --m may ask for (README examples: at most 1001;
# benchmark: 2e4).  The writers stream their text in chunks, so the cap
# bounds the O(P) float arrays and the run time: synth at 10^6 points peaks
# at 60 MB RSS in 0.7 s (209 MB when the whole text was built first)
MAX_GRID_POINTS = 10 ** 6
# the most frames evolve may write (README examples: 11); naming 10^6 frames
# alone takes seconds and 0.1 GB before the first is written
MAX_FRAMES = 10 ** 4
# the largest --n validate takes: past it the rejection draw of N points 0.1
# apart in its 10 x 4.8 box stalls (> 20 000 tries at N = 200), and the
# 40-digit references drift (wu_defect 5.6e-3 on a draw at N = 40)
MAX_VALIDATE_N = 32
# the file of each evolve frame, by its time at four decimals
FRAME_NAME = "frame_t{:.4f}.csv"
log = logging.getLogger("bo_soliton.cli")


class CliParseError(Exception):
    pass


def _setup_logging():
    level = os.environ.get("BO_SOLITON_LOG", "error").strip().lower()
    chosen = {"error": logging.ERROR, "debug": logging.DEBUG}.get(
        level, logging.ERROR)
    logging.basicConfig(level=chosen, format="%(levelname)s %(name)s: %(message)s")


def read_params_csv(path):
    try:
        # utf-8-sig also reads the byte-order mark of a spreadsheet export
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [r for r in reader if r and any(c.strip() for c in r)]
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CliParseError(f"{path}: empty parameter file")
    header = [c.strip().lower() for c in rows[0]]
    if header != ["x", "eta"]:
        raise CliParseError(f"{path}: expected header 'x,eta', got {rows[0]}")
    if len(rows) == 1:
        raise CliParseError(f"{path}: no parameter rows")
    xs, etas = [], []
    for r in rows[1:]:
        if len(r) != 2:
            raise CliParseError(f"{path}: malformed row {r}")
        try:
            xs.append(float(r[0]))
            etas.append(float(r[1]))
        except ValueError as exc:
            raise CliParseError(f"{path}: non-numeric row {r}") from exc
    return SolitonParameters.from_x_eta(xs, etas)


def _parse_grid(text):
    text = text.strip()
    parts = text.split(",")
    if len(parts) != 3:
        raise CliParseError(f"--grid expects 'xmin,xmax,n', got {text!r}")
    try:
        xmin, xmax, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliParseError(f"--grid expects numbers: {text!r}") from exc
    if not math.isfinite(xmax - xmin):  # an infinite or NaN bound, or span
        raise CliParseError(f"--grid needs finite bounds and span: {text!r}")
    if not xmax > xmin:
        raise CliParseError("--grid needs xmax > xmin")
    _check_point_count("--grid", n)
    return xmin, xmax, n


def _check_point_count(flag, n):
    if n < 2:
        raise CliParseError(f"{flag} needs at least 2 points, got {n}")
    if n > MAX_GRID_POINTS:
        raise CliParseError(
            f"{flag} asks for {n} points, more than {MAX_GRID_POINTS}")


def cmd_synth(args):
    params = read_params_csv(args.params_csv)
    xs = np.linspace(*_parse_grid(args.grid))  # both ends included
    write_xy(args.out, ("x", "u"), xs, profile_values(params, xs))
    if args.plot_script:
        write_plot_script(args.plot_script, [args.out], "u")
    return 0


def cmd_spectrum(args):
    params = read_params_csv(args.params_csv)
    sd = spectral_decompose(params)
    write_xy(args.out, ("j", "lambda", "gamma", "I"),
             np.arange(1, sd.n + 1), sd.lambdas, sd.gammas, sd.actions)
    return 0


def _evolve_times(t0, t1, dt):
    """Frame times t0 + k |dt| from t0 towards t1, t1 included.

    Non-finite values, and dt = 0 with t1 != t0, are usage errors: the steps
    would never reach t1.  Each time is checked as it is produced: a time
    past the first MAX_FRAMES is a usage error, and a time whose FRAME_NAME
    repeats an earlier one a DomainError, so a refusal costs only the times
    before it.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(dt)):
        raise CliParseError("--t0, --t1 and --dt must be finite")
    if t0 == t1:
        return [t0]
    if dt == 0:
        raise CliParseError("--dt must be nonzero when --t1 differs from --t0")
    step = abs(dt) if t1 > t0 else -abs(dt)
    times, names = [], set()
    slack = 1e-12 * max(1.0, abs(t0), abs(t1))  # the rounding of k * step
    for k in itertools.count():
        t = t0 + k * step
        if (t > t1 + slack) if step > 0 else (t < t1 - slack):
            return times
        if k == MAX_FRAMES:
            raise CliParseError(f"--t0, --t1 and --dt give more than "
                                f"{MAX_FRAMES} frames")
        name = FRAME_NAME.format(t)
        if name in names:
            raise DomainError(f"two frame times share the file {name}")
        names.add(name)
        times.append(t)


def cmd_evolve(args):
    if args.params_csv is not None:
        if args.r is not None or args.alpha is not None:
            raise CliParseError("give a params CSV or --r/--alpha lists, "
                                "not both")
        params = read_params_csv(args.params_csv)
        aa0 = aa_from_spectral(spectral_decompose(params))
    else:
        if not args.r or not args.alpha:
            raise CliParseError("need either a params CSV or --r/--alpha lists")
        aa0 = ActionAngles(np.array(args.r), np.array(args.alpha))
    xs = np.linspace(*_parse_grid(args.grid))  # the grid of synth
    times = _evolve_times(args.t0, args.t1, args.dt)
    frames = [os.path.join(args.outdir, FRAME_NAME.format(t)) for t in times]
    flows = [evolve_aa(aa0, t) for t in times]
    os.makedirs(args.outdir, exist_ok=True)
    for path, t, aa in zip(frames, times, flows):
        start = time.perf_counter()
        poles = inverse_map(aa)  # the z_j(t), eigenvalues of M(t)
        write_xy(path, ("x", "u"), xs, profile_values(poles, xs))
        log.debug("evolve: frame t=%g from the poles of M(t): N=%d, "
                  "%d points, min eta(t) %.3e, written in %.4f s", t, aa.n,
                  xs.size, poles.etas.min(), time.perf_counter() - start)
    write_xy(os.path.join(args.outdir, "actions.csv"),
             ("t", "j", "r", "alpha"), np.repeat(times, aa0.n),
             np.tile(np.arange(1, aa0.n + 1), len(flows)),
             np.concatenate([aa.rs for aa in flows]),
             np.concatenate([aa.alphas for aa in flows]))
    if args.plot_script:
        write_plot_script(args.plot_script, frames, "u")
    return 0


def cmd_validate(args):
    if args.n < 1 or args.trials < 1 or args.seed < 0:
        raise CliParseError("validate needs --n >= 1, --trials >= 1 and "
                            "--seed >= 0")
    if args.n > MAX_VALIDATE_N:
        raise CliParseError(f"validate takes --n at most {MAX_VALIDATE_N}, "
                            f"got {args.n}")
    # the only command that needs the oracle, and with it mpmath
    from .validation import run_validation

    results = run_validation(args.n, args.trials, args.seed,
                             with_pde=args.with_pde)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"{r.name:<{width}}  {status}  worst={r.worst:.3e}  "
              f"tol={r.tol:.1e}  trial={r.trial} n={r.n}")
    print("all checks passed" if all_ok else "some checks FAILED")
    return 0 if all_ok else 4


def cmd_torus(args):
    _check_point_count("--m", args.m)
    params = read_params_csv(args.params_csv)
    field = torus_potential(params, args.m)
    write_xy(args.out, ("y", "v"), field.xs(), field.values)
    if args.plot_script:
        write_plot_script(args.plot_script, [args.out], "v")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bo-soliton",
        description="Multi-soliton toolkit for the Benjamin-Ono equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="sample an N-soliton profile onto a grid")
    p.add_argument("params_csv", type=_path)
    p.add_argument("--grid", required=True, help="xmin,xmax,n")
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--plot-script", dest="plot_script", type=_path)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("spectrum", help="eigenvalues, angles, and actions")
    p.add_argument("params_csv", type=_path)
    p.add_argument("--out", required=True, type=_path)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("evolve", help="explicit time evolution frames")
    p.add_argument("params_csv", nargs="?", default=None, type=_path)
    p.add_argument("--r", type=float, nargs="+", help="actions r1..rN")
    p.add_argument("--alpha", type=float, nargs="+", help="angles a1..aN")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.0)
    p.add_argument("--grid", required=True, help="xmin,xmax,n")
    p.add_argument("--outdir", required=True, type=_path)
    p.add_argument("--plot-script", dest="plot_script", type=_path)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("validate", help="run the randomized invariant suite")
    p.add_argument("--n", type=int, default=4, help="largest soliton count")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-pde", action="store_true", dest="with_pde")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "torus",
        help="periodic gap potential via z -> exp(iz); mean zero, and v + N "
             "is the 2*pi-periodization of the line profile u")
    p.add_argument("params_csv", type=_path)
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--plot-script", dest="plot_script", type=_path)
    p.set_defaults(func=cmd_torus)

    return parser


def _spaced_minus_values(argv):
    """Prefix a space to each token that starts with '-' and whose text up
    to the first comma is a float, like -1e-3, -inf or -1,1,3: argparse
    alone reads only -5 and -0.5 as values, and any token that does not
    start with '-' as one; float(), int() and _parse_grid ignore the space.
    Any other token, a path like -1.csv among them, is passed as typed, and
    ``_path`` refuses a spaced one, so no path is ever rewritten.
    """
    def spaced(tok):
        try:
            float(tok.split(",", 1)[0])
        except ValueError:
            return False
        return tok.startswith("-")

    return [" " + tok if spaced(tok) else tok for tok in argv]


def _path(text):
    """A path argument as typed; one that ``_spaced_minus_values`` spaced
    (a path like -5 or -1e-3) is a usage error, not a file named with a
    space."""
    if text.startswith(" -"):
        raise argparse.ArgumentTypeError(
            f"path {text[1:]!r} reads as a number; write it as ./{text[1:]}")
    return text


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_spaced_minus_values(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        # one block per run: a failed command leaves every output as it was
        with all_or_none(getattr(args, "outdir", None)):
            return args.func(args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"invariant violation [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # tableio writes every output
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
