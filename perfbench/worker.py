"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` starts this file in a fresh process with single-threaded BLAS and
``src`` on the import path; it is not meant to be run by hand.  The process:

1. imports the library, draws the workload's inputs from ``--seed`` and runs
   one warm-up operation outside the timed list (its set-up);
2. issues operations back to back from one caller (a closed loop) until the
   operations have taken ``--seconds`` seconds;
3. checks every operation's result outside the timed region.

A fixed kernel of the benchmark's own is timed before, between and after
the operations, and after the set-up; it measures the host's speed, which
the gated times are scaled by (see ``calibrate``).

With ``--trace 1`` every input is run twice, once plain and once with spans
around each library call, in alternating order; the per-layer metrics come
from the traced runs and ``trace.overhead_frac`` from the pairs.

The library is driven only through the public calls that the ``spectrum``
and ``evolve`` CLI commands make, plus ``pde.run``.  ``rational`` and
``invariants`` run only inside ``spectral_decompose`` or in the checks, so
they get no span of their own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import scipy

from bo_soliton import pde, tableio
from bo_soliton.action_angle import (
    aa_from_spectral,
    evolve_aa,
    explicit_solution,
    inverse_map,
)
from bo_soliton.errors import BOSolitonError, GramIllConditioned
from bo_soliton.profiles import SolitonParameters, profile_values
from bo_soliton.spectral import spectral_decompose, verify_m_matrix
from bo_soliton.validation import random_params

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# Gram conditions at which spectral_decompose leaves double precision for the
# 40-digit path, and above which it refuses the input; kept here so the
# benchmark does not depend on the library's constants
ILL_COND = 1e6
REFUSE_COND = 1e12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# acceptance tolerances of the checks (criteria 2, 4, 5, 6 and 7)
ROUNDTRIP_TOL = 1e-7
M_FORMULA_TOL = 1e-8
TWO_PATH_TOL = 1e-9
PDE_L2_TOL = 1e-3
MASS_DRIFT_TOL = 1e-8


# -- host speed ------------------------------------------------------------------

# On a shared host (2 vCPUs of a 2.1 GHz Xeon) the speed drifted by up to
# 1.5x within seconds and over minutes, alike for FFTs, small LAPACK calls
# and Python bytecode, and in CPU time as much as in wall time.  Timed next
# to the operations, a fixed kernel that mixes the three tracks that drift:
# over 30-s windows the ratio of a pde_reference op to the kernel stayed
# within 3% while the op alone moved by 22%.  The gated times are given at
# the host speed at which one kernel run takes CAL_REF_S.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.15  # of operation time between two kernel runs
CAL_AFTER_SETUP = 40  # kernel runs that measure the speed after set-up
_CAL_WAVE = np.exp(2j * np.pi * np.arange(4096) / 97.0)
_CAL_MAT = np.cos(np.add.outer(np.arange(8.0), 1.7 * np.arange(8.0)))


def calibrate():
    """Seconds one run of the fixed reference kernel takes now."""
    t0 = time.perf_counter()
    x = _CAL_WAVE
    for _ in range(15):
        x = np.fft.ifft(np.fft.fft(x))
    for _ in range(30):
        np.linalg.eigvals(_CAL_MAT)
    acc = 0
    for i in range(35_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def slowdown(cal_s):
    """How many times slower than the reference speed the host ran."""
    return float(np.mean(cal_s)) / CAL_REF_S


# -- spans -------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent index and op id."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = -1

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def self_times(self):
        """(name, self seconds, op id) per span: duration minus its children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(name, end - start - covered[k], op)
                for k, (name, start, end, _, op) in enumerate(self.spans)]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


# -- the library calls an op makes ---------------------------------------------

def write_frame(path, xs, u):
    """Format and write one frame the way ``bo-soliton evolve`` does."""
    tableio.write_csv(path, ("x", "u"),
                      [(tableio.fmt(x), tableio.fmt(v)) for x, v in zip(xs, u)])


SPAN_NAMES = {
    "spectral_decompose": "spectral.decompose",
    "aa_from_spectral": "action_angle.aa_from_spectral",
    "inverse_map": "action_angle.inverse_map",
    "explicit_solution": "action_angle.explicit",
    "write_frame": "tableio.write",
    "pde_run": "pde.run",
}


def library(tracer=None, **overrides):
    """The calls ops make, wrapped in spans when tracing.

    ``overrides`` replaces a call by name, so a test can substitute a
    defective one.
    """
    calls = {"spectral_decompose": spectral_decompose,
             "aa_from_spectral": aa_from_spectral,
             "inverse_map": inverse_map,
             "explicit_solution": explicit_solution,
             "write_frame": write_frame,
             "pde_run": pde.run}
    calls.update(overrides)
    if tracer is not None:
        calls = {k: tracer.wrap(SPAN_NAMES[k], fn) for k, fn in calls.items()}
    return SimpleNamespace(**calls)


# -- inputs --------------------------------------------------------------------

def separated_train(rng, n, gap=3.0, eta_range=(0.3, 1.5)):
    """n narrow solitons, positions at least ``gap`` apart over |x| <= 4n."""
    room = 8.0 * n - (n - 1) * gap
    xs = np.sort(rng.uniform(0.0, room, n)) + gap * np.arange(n) - 4.0 * n
    etas = rng.uniform(*eta_range, n)
    return SolitonParameters(tuple(xs - 1j * etas))


def gram_cond(params):
    """Condition of the Cauchy Gram 2 pi / ((eta_r + eta_s) + i (x_r - x_s))."""
    z = np.array(params.zs)
    eta = -z.imag
    gram = 2 * np.pi / (eta[:, None] + eta[None, :]
                        + 1j * (z.real[:, None] - z.real[None, :]))
    return float(np.linalg.cond(gram))


# -- workloads -------------------------------------------------------------------

class ActionAngleRoundtrip:
    """op = spectral_decompose -> aa_from_spectral -> inverse_map.

    The pool holds ``per_n`` inputs of each size, interleaved so that the op
    list cycles through the sizes.  With ``ill_share`` (size -> share), the
    inputs of each size above ILL_COND come at that share in a fixed
    pattern, each drawn in turn from the draws of its side.
    """

    def __init__(self, ns, per_n, draw, warm, ill_share=None):
        self.ns = ns
        self.per_n = per_n
        self.draw = draw
        self.warm = warm
        self.ill_share = ill_share

    def setup(self, rng):
        by_n = [self._inputs(rng, n) for n in self.ns]
        self.pool = [params for row in zip(*by_n) for params in row]

    def _inputs(self, rng, n):
        if self.ill_share is None:
            return [self.draw(rng, n) for _ in range(self.per_n)]
        share = self.ill_share[n]
        spare = ([], [])  # draws not yet used, by side of ILL_COND
        out = []
        for k in range(self.per_n):
            ill = int((k + 1) * share) > int(k * share)
            while not spare[ill]:
                params = self.draw(rng, n)
                spare[gram_cond(params) > ILL_COND].append(params)
            out.append(spare[ill].pop(0))
        return out

    def warm_up(self, lib):
        self.op(lib, self.warm)

    def input(self, i):
        key = i % len(self.pool)
        return key, self.pool[key]

    def params(self, x):
        return x

    def op(self, lib, params):
        sd = lib.spectral_decompose(params)
        return sd, lib.inverse_map(lib.aa_from_spectral(sd))

    def check(self, params, out, acc):
        sd, back = out
        za, zb = np.array(params.zs), np.array(back.zs)
        roundtrip = float(np.abs(za - zb).max()) if za.size == zb.size else np.inf
        m_err = verify_m_matrix(sd)
        acc.worst("roundtrip_err_max", roundtrip)
        acc.worst("m_formula_err_max", m_err)
        return roundtrip < ROUNDTRIP_TOL and m_err < M_FORMULA_TOL

    def close(self):
        pass


class EvolveFrames:
    """op = one frame of ``bo-soliton evolve``: explicit solution, then CSV."""

    points = 20_000
    half_width = 200.0
    pool = 10

    def setup(self, rng):
        self.train = separated_train(rng, 8)
        self.aa0 = aa_from_spectral(spectral_decompose(self.train))
        self.xs = np.linspace(-self.half_width, self.half_width, self.points)
        self.times = rng.uniform(0.0, 10.0, self.pool)
        self.refs = {}  # t -> reference profile; inputs repeat
        os.makedirs(OUT_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="frames-", dir=OUT_DIR)

    def warm_up(self, lib):
        self.op(lib, 0.0)

    def input(self, i):
        key = i % self.pool
        return key, float(self.times[key])

    def params(self, t):
        return self.train

    def op(self, lib, t):
        u = lib.explicit_solution(self.aa0, t, self.xs)
        path = os.path.join(self.dir, f"frame_t{t:.4f}.csv")
        lib.write_frame(path, self.xs, u)
        return u, path

    def check(self, t, out, acc):
        u, path = out
        if t not in self.refs:
            self.refs[t] = profile_values(inverse_map(evolve_aa(self.aa0, t)),
                                          self.xs)
        ref = self.refs[t]
        gap = float(np.abs(u - ref).max())
        acc.worst("two_path_gap_max", gap)
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        acc.counts["bytes_written"] += len(data)
        last = data.rsplit(b"\n", 2)[-2].split(b",")
        written = (data.count(b"\n") == self.points + 1
                   and float(last[0]) == self.xs[-1]
                   and float(last[1]) == u[-1])
        return gap < TWO_PATH_TOL and written

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class PdeReference:
    """op = pde.run of a two-soliton collision (taller soliton behind)."""

    cfg = pde.PdeConfig(domain_half_width=400.0, modes=2 ** 14, dt=1e-3,
                        t_end=0.1, snapshot_dt=0.02)

    def setup(self, rng):
        self.pool = [self._draw(rng) for _ in range(5)]
        self.refs = {}  # (params, t) -> reference field; inputs repeat

    def warm_up(self, lib):
        # ten steps: the op's arrays and FFT sizes, a tenth of its time
        lib.pde_run(self.pool[0], replace(self.cfg, t_end=10 * self.cfg.dt))

    @staticmethod
    def _draw(rng):
        while True:
            xs = np.sort(rng.uniform(-15.0, 15.0, 2))
            if xs[1] - xs[0] >= 4.0:
                break
        etas = np.sort(rng.uniform(0.5, 1.5, 2))
        return SolitonParameters(tuple(xs - 1j * etas))

    def input(self, i):
        key = i % len(self.pool)
        return key, self.pool[key]

    def params(self, x):
        return x

    def op(self, lib, params):
        return lib.pde_run(params, self.cfg)

    def check(self, params, snaps, acc):
        t_end, field = snaps[-1]
        if (params, t_end) not in self.refs:
            aa0 = aa_from_spectral(spectral_decompose(params))
            self.refs[params, t_end] = explicit_solution(aa0, t_end,
                                                         field.xs())
        ref = self.refs[params, t_end]
        l2_rel = float(np.linalg.norm(field.values - ref) / np.linalg.norm(ref))
        masses = [f.values.sum() * f.dx for _, f in snaps]
        drift = float((max(masses) - min(masses)) / abs(masses[0]))
        acc.worst("pde_l2_rel_max", l2_rel)
        acc.worst("mass_drift_max", drift)
        acc.counts["pde_steps"] += int(round(t_end / self.cfg.dt))
        return l2_rel < PDE_L2_TOL and drift < MASS_DRIFT_TOL

    def close(self):
        pass


def _warm_separated():
    return separated_train(np.random.default_rng(0), 8)


def _warm_clustered():
    # a fixed input that takes the 40-digit path, so set-up time does not
    # depend on the seed
    return SolitonParameters((-0.4 - 2.0j, 0.0 - 2.2j, 0.3 - 1.9j,
                              1.1 - 2.5j, -1.5 - 1.7j, 2.0 - 2.1j))


# Share of random_params draws of each size whose Gram condition exceeds
# ILL_COND, from 2000 draws per size.  An aa_clustered op on the 40-digit
# path costs 10 to 40 times one on the double-precision path, so drawing the
# path at random would move a run's throughput by 10% from seed to seed;
# aa_clustered takes each path at its share in a fixed pattern instead.
VALIDATE_ILL_SHARE = {6: 0.19, 7: 0.43, 8: 0.69, 9: 0.89, 10: 0.96}

# Pool sizes: each aa_separated, evolve_frames and pde_reference input runs
# tens of times in a run, and the checks reuse its reference; the 300
# aa_clustered inputs outnumber the ops of a run, so each runs about once.
WORKLOADS = {
    "aa_separated": lambda: ActionAngleRoundtrip(
        (2, 4, 8, 16, 24), 20, separated_train, _warm_separated()),
    "aa_clustered": lambda: ActionAngleRoundtrip(
        (6, 7, 8, 9, 10), 60, random_params, _warm_clustered(),
        VALIDATE_ILL_SHARE),
    "evolve_frames": EvolveFrames,
    "pde_reference": PdeReference,
}


# -- the measured run ------------------------------------------------------------

class Tally:
    """Outcomes, worst check errors and layer counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0  # GramIllConditioned on an input above REFUSE_COND
        self.raised = Counter()  # every BOSolitonError, by class
        self.checks = {}
        self.counts = Counter()
        self.op_s = []
        self.sizes = []  # soliton count of each op's input

    def worst(self, name, value):
        self.checks[name] = max(self.checks.get(name, 0.0), value)


def _timed(wl, lib, x, tracer=None):
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(lib, x)
        else:
            with tracer.span("op"):
                out = wl.op(lib, x)
    except BOSolitonError as exc:
        out = exc
    return time.perf_counter() - t0, out


def run_workload(name, seed, seconds, trace, t_start, setup_only=False,
                 **overrides):
    """Set up, warm up and measure one workload; returns the result dict."""
    wl = WORKLOADS[name]()
    try:
        rng = np.random.default_rng(seed)
        wl.setup(rng)
        plain = library(**overrides)
        wl.warm_up(plain)
        setup_raw_s = time.monotonic() - t_start
        calibrate()  # its own first run pays for FFT plans and imports
        setup_s = setup_raw_s / slowdown(
            [calibrate() for _ in range(CAL_AFTER_SETUP)])
        if setup_only:
            return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}

        tracer = Tracer() if trace else None
        traced = library(tracer, **overrides) if trace else None
        tally = Tally()
        conds = {}
        plain_s = traced_s = spent = next_cal = 0.0
        cal_s = []
        i = 0
        while spent < seconds:
            if spent >= next_cal:
                cal_s.append(calibrate())
                next_cal = spent + CAL_EVERY_S
            key, x = wl.input(i)
            if tracer is None:
                dt, out = _timed(wl, plain, x)
                spent += dt
            else:
                tracer.op = i
                if i % 2:
                    dt, out = _timed(wl, traced, x, tracer)
                    dt_plain, _ = _timed(wl, plain, x)
                else:
                    dt_plain, _ = _timed(wl, plain, x)
                    dt, out = _timed(wl, traced, x, tracer)
                plain_s += dt_plain
                traced_s += dt
                spent += dt + dt_plain
            params = wl.params(x)
            if key not in conds:
                conds[key] = gram_cond(params)
            tally.attempted += 1
            tally.op_s.append(dt)
            tally.sizes.append(params.n)
            tally.counts["ill_cond"] += conds[key] > ILL_COND
            if isinstance(out, BOSolitonError):
                tally.raised[type(out).__name__] += 1
                # the documented refusal counts only where it is due; any
                # other typed error means the library broke down
                if (isinstance(out, GramIllConditioned)
                        and conds[key] > REFUSE_COND):
                    tally.refused += 1
                else:
                    tally.failed += 1
            elif not wl.check(x, out, tally):
                tally.failed += 1
            i += 1
        cal_s.append(calibrate())
    finally:
        wl.close()

    result = {"workload": name, "seed": seed, "trace": int(trace),
              "setup_s": setup_s, "setup_raw_s": setup_raw_s,
              "attempted": tally.attempted,
              "failed": tally.failed, "refused": tally.refused,
              "raised": dict(tally.raised), "checks": tally.checks,
              "env": environment(seed),
              "end_to_end": end_to_end(tally, slowdown(cal_s))}
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
        tracer.dump(spans_path)
        result["spans_file"] = os.path.relpath(spans_path)
        result["per_layer"] = per_layer(tracer, tally, traced_s / plain_s - 1.0)
    return result


# -- metrics --------------------------------------------------------------------

TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


def end_to_end(tally, host_slowdown):
    """Every end-to-end figure of the run, plus the tail's percentile.

    ``ops_per_s`` is given at the reference host speed; the measured rate is
    ``ops_per_s_raw``.
    """
    op_ms = np.array(tally.op_s) * 1e3
    wall_s = float(np.sum(tally.op_s))
    passed = tally.attempted - tally.failed - tally.refused
    out = {"wall_s": wall_s,
           "ops_per_s": passed * host_slowdown / wall_s,
           "ops_per_s_raw": passed / wall_s,
           "host_slowdown": host_slowdown,
           "op_p50_ms": float(np.median(op_ms)),
           "failed_frac": (tally.attempted - passed) / tally.attempted,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "samples": int(op_ms.size)}
    for pct in TAIL_LADDER:
        value = float(np.percentile(op_ms, pct))
        beyond = int(np.sum(op_ms > value))
        if beyond >= 10:
            out.update(op_tail_ms=value, tail_percentile=pct,
                       tail_beyond=beyond)
            break
    return out


def per_layer(tracer, tally, overhead_frac):
    by_name = {}
    by_n = {}
    for name, self_s, op in tracer.self_times():
        by_name.setdefault(name, []).append(self_s)
        if name == "spectral.decompose":
            by_n.setdefault(tally.sizes[op], []).append(self_s)

    def p50_ms(values):
        return float(np.median(values)) * 1e3 if values else 0.0

    def total(name):
        return float(np.sum(by_name.get(name, [])))

    raised = Counter(tally.raised)
    gram = raised.pop("GramIllConditioned", 0)
    explicit_s = total("action_angle.explicit")
    write_s = total("tableio.write")
    pde_s = total("pde.run")
    steps = tally.counts["pde_steps"]
    bytes_written = tally.counts["bytes_written"]
    metrics = {
        "spectral.decompose_ms_p50": p50_ms(by_name.get("spectral.decompose")),
        "spectral.decompose_s_total": total("spectral.decompose"),
        **{f"spectral.decompose_ms_p50.n{n}": p50_ms(by_n.get(n))
           for n in (2, 4, 8, 16, 24)},
        "spectral.refused.GramIllConditioned": gram,
        "spectral.refused.other": sum(raised.values()),
        "input.ill_cond_share": tally.counts["ill_cond"] / tally.attempted,
        "action_angle.inverse_map_ms_p50":
            p50_ms(by_name.get("action_angle.inverse_map")),
        "action_angle.inverse_map_s_total": total("action_angle.inverse_map"),
        "action_angle.explicit_ms_p50":
            p50_ms(by_name.get("action_angle.explicit")),
        "action_angle.explicit_s_total": explicit_s,
        "action_angle.explicit_points_per_s":
            (EvolveFrames.points * len(by_name["action_angle.explicit"])
             / explicit_s) if explicit_s else 0.0,
        "tableio.write_ms_p50": p50_ms(by_name.get("tableio.write")),
        "tableio.write_s_total": write_s,
        "tableio.bytes_written": bytes_written,
        "tableio.mb_per_s": bytes_written / 1e6 / write_s if write_s else 0.0,
        "pde.run_s_total": pde_s,
        "pde.steps": steps,
        "pde.step_ms": pde_s * 1e3 / steps if steps else 0.0,
        "op.self_ms_p50": p50_ms(by_name.get("op")),
        "trace.overhead_frac": overhead_frac,
    }
    for check in ("roundtrip_err_max", "m_formula_err_max", "two_path_gap_max",
                  "pde_l2_rel_max", "mass_drift_max"):
        metrics[f"check.{check}"] = tally.checks.get(check, 0.0)
    return metrics


def environment(seed):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        deps = {}
    blas, lapack = ({k: deps.get(lib, {}).get(k) for k in
                     ("name", "version", "openblas configuration")}
                    for lib in ("blas", "lapack"))
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": blas, "lapack": lapack,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": nproc, "seed": seed,
            "load": "closed loop, one caller, ops back to back"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() of the parent just before "
                             "it started this process")
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.spawn_time, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
