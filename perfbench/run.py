"""Benchmark of the bo-soliton pipeline: one workload per invocation.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload aa_clustered --seed 1 --seconds 20 --trace 0

Self-tests: ``python3 perfbench/selftest.py``.

Workloads (see BENCHMARK.json for why each is there):

* ``aa_separated``  forward map and its inverse on well-separated trains,
  N cycling over 2, 4, 8, 16, 24 (double-precision path);
* ``aa_clustered``  the same op on the input draw of ``bo-soliton validate``,
  N cycling over 6..10 (mostly the 40-digit path);
* ``evolve_frames`` one ``bo-soliton evolve`` frame per op: the explicit
  solution on 2*10^4 points and its CSV;
* ``pde_reference`` one pseudospectral run of a two-soliton collision per op
  (2^14 modes, 100 steps).

Each workload runs in a fresh process with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1 and ``src`` on the
import path; nothing is installed.  With ``--trace 0`` the set-up is also
repeated in six more processes, and ``setup_s`` is the median of the seven.

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the gated end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``ops_per_s`` counts passed ops per second of ``wall_s`` and ``setup_s`` is
the time to the first op, both given at a reference host speed: the shared
host runs everything up to 1.5x slower at times, so the worker times a fixed
kernel of its own between the ops and after its set-up, and scales the
measured figures by how much slower than its reference time of 5 ms the
kernel ran (``worker.calibrate``).  The measured figures and the slowdown are
printed beside them and kept in the ``record`` line.  ``wall_s``,
``op_p50_ms``, ``op_tail_ms`` and ``failed_frac`` are printed but not gated:
the run is time-boxed, the median of ``aa_clustered`` falls between its two
solve paths, the tail needs 20 ops, and the failed fraction is 0 on three
workloads.

``failed`` counts operations whose result failed its check or that raised a
``BOSolitonError``, with one exception: ``GramIllConditioned`` on an input
whose Gram condition, computed by the benchmark, exceeds 1e12 is the
library's documented refusal.  It counts in ``failed_frac`` but not in
``failed``.  Every typed error is tallied by class.

Exit codes: 0 success, 1 a worker process failed or timed out, 2 usage error
or no ``src/bo_soliton`` under the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("aa_separated", "aa_clustered", "evolve_frames", "pde_reference")
SETUP_PROBES = 6
DEADLINE_S = 170.0  # the whole command ends within this, or fails

# name -> unit; GATED are the end-to-end metrics in the result line, the rest
# of END_TO_END is reported above it
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_frac": "frac",
    "peak_rss_mb": "MB",
}
GATED = ("setup_s", "ops_per_s", "peak_rss_mb")
PER_LAYER = {
    "spectral.decompose_ms_p50": "ms",
    "spectral.decompose_s_total": "s",
    "spectral.decompose_ms_p50.n2": "ms",
    "spectral.decompose_ms_p50.n4": "ms",
    "spectral.decompose_ms_p50.n8": "ms",
    "spectral.decompose_ms_p50.n16": "ms",
    "spectral.decompose_ms_p50.n24": "ms",
    "spectral.refused.GramIllConditioned": "count",
    "spectral.refused.other": "count",
    "input.ill_cond_share": "frac",
    "action_angle.inverse_map_ms_p50": "ms",
    "action_angle.inverse_map_s_total": "s",
    "action_angle.explicit_ms_p50": "ms",
    "action_angle.explicit_s_total": "s",
    "action_angle.explicit_points_per_s": "points/s",
    "tableio.write_ms_p50": "ms",
    "tableio.write_s_total": "s",
    "tableio.bytes_written": "bytes",
    "tableio.mb_per_s": "MB/s",
    "pde.run_s_total": "s",
    "pde.steps": "count",
    "pde.step_ms": "ms",
    "op.self_ms_p50": "ms",
    "check.roundtrip_err_max": "abs",
    "check.m_formula_err_max": "abs",
    "check.two_path_gap_max": "abs",
    "check.pde_l2_rel_max": "rel",
    "check.mass_drift_max": "rel",
    "trace.overhead_frac": "frac",
}


def worker(args, setup_only, deadline):
    """Run worker.py once in a fresh single-threaded process; its result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawn-time", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def report(result, setup_samples):
    """Print every metric by name and unit; return the result line."""
    e2e = dict(result["end_to_end"],
               setup_s=statistics.median(s["setup_s"] for s in setup_samples),
               setup_raw_s=statistics.median(s["setup_raw_s"]
                                             for s in setup_samples))
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  ({result['env']['load']}; threads "
          f"{result['env']['threads']}; nproc {result['env']['nproc']})")
    for name, unit in END_TO_END.items():
        note = ""
        if name == "setup_s":
            note = (f"median of {len(setup_samples)} set-ups at the "
                    f"reference speed; {e2e['setup_raw_s']:.6g} s measured")
        elif name == "op_tail_ms":
            if name not in e2e:
                print(f"  {name:<14} omitted ({e2e['samples']} ops, fewer "
                      f"than 10 beyond any percentile)  {unit}")
                continue
            note = (f"p{e2e['tail_percentile']:g} of {e2e['samples']} ops, "
                    f"{e2e['tail_beyond']} beyond")
        elif name == "failed_frac":
            note = (f"{result['failed']} failed, {result['refused']} refused "
                    f"above Gram condition 1e12; raised "
                    f"{result['raised'] or 'none'}")
        elif name == "ops_per_s":
            note = (f"at the reference speed; {e2e['ops_per_s_raw']:.6g} "
                    f"measured, host {e2e['host_slowdown']:.4g}x slower; "
                    f"{result['attempted']} ops")
        print(f"  {name:<14} {e2e[name]:.6g} {unit}  {note}".rstrip())
    print("  checks (worst): " + (", ".join(
        f"{k} {v:.3g}" for k, v in sorted(result["checks"].items())) or "none"))

    if result["trace"]:
        layers = result["per_layer"]
        print("per-layer (traced run; rational and invariants run inside "
              "spectral_decompose or the checks and have no span of their own; "
              f"spans in {result['spans_file']}):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<38} {layers[name]:.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END[k]} for k in GATED}
    print("record " + json.dumps(
        {"env": dict(result["env"], git_commit=git_commit()),
         "end_to_end": e2e,
         "setup_samples_s": [s["setup_s"] for s in setup_samples],
         "setup_raw_samples_s": [s["setup_raw_s"] for s in setup_samples],
         "refused": result["refused"], "raised": result["raised"],
         "checks": result["checks"]}))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "bo_soliton", "__init__.py")):
        print("error: run from the root of a bo-soliton checkout "
              "(no src/bo_soliton here)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_samples = [] if args.trace else [
            worker(args, True, deadline) for _ in range(SETUP_PROBES)]
        result = worker(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = report(result, setup_samples + [result])
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
