"""Command-line front end.

Subcommands: synth, spectrum, evolve, validate, torus.  All tables are CSV
with a header row, floats printed with 17 significant digits, LF line
endings, written atomically (temp file + rename).

Exit codes: 0 success, 2 usage or parse error, 3 domain invariant violation,
4 numerical failure.  Verbosity via BO_SOLITON_LOG in {error, info, debug}.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import logging
import math
import os
import sys

import numpy as np

from .action_angle import (
    ActionAngles,
    aa_from_spectral,
    evolve_aa,
    explicit_solution,
)
from .errors import DomainError, NumericalError
from .profiles import SolitonParameters, profile_values, torus_potential
from .spectral import spectral_decompose
from .tableio import fmt as _fmt
from .tableio import write_csv, write_frames, write_xy
from .validation import run_validation

log = logging.getLogger("bo_soliton")

# the most samples --grid or --m may ask for (README examples: at most 1001;
# benchmark: 2e4); a larger count could exhaust memory before any output
MAX_GRID_POINTS = 10 ** 6


class CliParseError(Exception):
    pass


def _setup_logging():
    level = os.environ.get("BO_SOLITON_LOG", "error").strip().lower()
    chosen = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}.get(level, logging.ERROR)
    logging.basicConfig(level=chosen, format="%(levelname)s %(name)s: %(message)s")


def read_params_csv(path):
    try:
        with open(path, newline="") as fh:
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
    parts = text.split(",")
    if len(parts) != 3:
        raise CliParseError(f"--grid expects 'xmin,xmax,n', got {text!r}")
    try:
        xmin, xmax, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliParseError(f"--grid expects numbers: {text!r}") from exc
    if not math.isfinite(xmax - xmin):  # an infinite or NaN bound, or span
        raise CliParseError(f"--grid needs finite bounds and span: {text!r}")
    if n < 2 or not xmax > xmin:
        raise CliParseError("--grid needs xmax > xmin and n >= 2")
    _check_point_count("--grid", n)
    return xmin, xmax, n


def _check_point_count(flag, n):
    if n > MAX_GRID_POINTS:
        raise CliParseError(
            f"{flag} asks for {n} points, more than {MAX_GRID_POINTS}")


def _emit_plot_script(path, csv_paths, ylabel):
    lines = [
        "#!/usr/bin/env python3",
        "import matplotlib.pyplot as plt",
        "import numpy as np",
        "",
        f"files = {[os.path.abspath(p) for p in csv_paths]!r}",
        "for f in files:",
        "    data = np.genfromtxt(f, delimiter=',', names=True)",
        "    cols = data.dtype.names",
        "    plt.plot(data[cols[0]], data[cols[1]], label=f)",
        "plt.xlabel('x')",
        f"plt.ylabel({ylabel!r})",
        "plt.legend(fontsize=6)",
        "plt.show()",
    ]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_synth(args):
    params = read_params_csv(args.params_csv)
    xs = np.linspace(*_parse_grid(args.grid))  # both ends included
    us = profile_values(params, xs)
    if not np.all(np.isfinite(us)):  # an eta so small that eta**2 underflows
        raise DomainError("grid values must be finite")
    write_xy(args.out, ("x", "u"), xs, us)
    if args.plot_script:
        _emit_plot_script(args.plot_script, [args.out], "u")
    return 0


def cmd_spectrum(args):
    params = read_params_csv(args.params_csv)
    sd = spectral_decompose(params)
    rows = []
    for j in range(sd.n):
        rows.append((str(j + 1), _fmt(sd.lambdas[j]), _fmt(sd.gammas[j]),
                     _fmt(sd.actions[j])))
    write_csv(args.out, ("j", "lambda", "gamma", "I"), rows)
    return 0


def _evolve_times(t0, t1, dt):
    """Frame times t0 + k |dt| from t0 towards t1, t1 included, as a lazy
    iterable, so that a refusal of the frame names reads only what it needs.

    Non-finite values, and dt = 0 with t1 != t0, are usage errors, raised
    on the call: the steps would never reach t1.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(dt)):
        raise CliParseError("--t0, --t1 and --dt must be finite")
    if t0 == t1:
        return [t0]
    if dt == 0:
        raise CliParseError("--dt must be nonzero when --t1 differs from --t0")
    step = abs(dt) if t1 > t0 else -abs(dt)
    times = (t0 + k * step for k in itertools.count())
    if step > 0:
        return itertools.takewhile(lambda t: t <= t1 + 1e-12, times)
    return itertools.takewhile(lambda t: t >= t1 - 1e-12, times)


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
    frames = write_frames(args.outdir, times,
                          lambda t: (xs, explicit_solution(aa0, t, xs)))

    action_rows = []
    for t in frames.values():
        aa_t = evolve_aa(aa0, t)
        for j in range(aa_t.n):
            action_rows.append((_fmt(t), str(j + 1), _fmt(aa_t.rs[j]),
                                _fmt(aa_t.alphas[j])))
    write_csv(os.path.join(args.outdir, "actions.csv"),
              ("t", "j", "r", "alpha"), action_rows)
    if args.plot_script:
        _emit_plot_script(args.plot_script, list(frames), "u")
    return 0


def cmd_validate(args):
    if args.n < 1 or args.trials < 1:
        raise CliParseError("validate needs --n >= 1 and --trials >= 1")
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
        _emit_plot_script(args.plot_script, [args.out], "v")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bo-soliton",
        description="Multi-soliton toolkit for the Benjamin-Ono equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="sample an N-soliton profile onto a grid")
    p.add_argument("params_csv")
    p.add_argument("--grid", required=True, help="xmin,xmax,n")
    p.add_argument("--out", required=True)
    p.add_argument("--plot-script", dest="plot_script")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("spectrum", help="eigenvalues, angles, and actions")
    p.add_argument("params_csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("evolve", help="explicit time evolution frames")
    p.add_argument("params_csv", nargs="?", default=None)
    p.add_argument("--r", type=float, nargs="+", help="actions r1..rN")
    p.add_argument("--alpha", type=float, nargs="+", help="angles a1..aN")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.0)
    p.add_argument("--grid", required=True, help="xmin,xmax,n")
    p.add_argument("--outdir", required=True)
    p.add_argument("--plot-script", dest="plot_script")
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
    p.add_argument("params_csv")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--out", required=True)
    p.add_argument("--plot-script", dest="plot_script")
    p.set_defaults(func=cmd_torus)

    return parser


def _merge_grid_flag(argv):
    """Join '--grid xmin,xmax,n' so a leading minus is not read as a flag."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_grid_flag(list(argv)))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
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


if __name__ == "__main__":
    sys.exit(main())
