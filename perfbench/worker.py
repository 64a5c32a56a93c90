"""One benchmark run in a fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of the workload for S seconds (one caller, one operation in
flight), checks every operation against its oracle outside the timed
region, and prints as its last line a JSON object with the run's
metrics.  With --trace 1 it then repeats exactly the same rounds with
the tracer installed and reports per-layer metrics, and the tracing
overhead as traced minus untraced wall_s.

Timings are scaled to a fixed machine speed, then the fastest of each
operation in the run is kept.  Co-tenant load on a shared host slows a
run in phases from seconds to minutes: one identical volume relax run
took from 3.9 s to 7.4 s within four minutes.  A fixed reference kernel
timed before and after each round slows with it (correlation 0.76 over
those runs), so each round's times are multiplied by REF_NOMINAL_S over
the reference's mean time around that round.  Over 30 s windows this
cut the quartile spread of the volume run's fastest time from 13% to 8%
of its median; raw figures are still printed on the first line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import layers
import workloads
from spans import Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_REPORTED_FAILURES = 5
REF_NOMINAL_S = 0.05    # reference kernel time the reported timings are scaled to
SETUP_REPEATS = 5
IMPORT_ALL = ("import importlib, pkgutil, ledlab\n"
              "for m in pkgutil.iter_modules(ledlab.__path__, 'ledlab.'):\n"
              "    importlib.import_module(m.name)\n")


def reference_s() -> float:
    """Wall time of a fixed NumPy kernel that shares the workloads'
    bottlenecks: a flux-form stencil on a (40 001, 3) array, which
    allocates and streams like the radial wave operator, then a loop of
    small-array calls, which is interpreter-bound like the spin inverse."""
    t0 = time.perf_counter()
    r = np.arange(1, 40002) * 0.05
    r4 = (0.5 * (r[:-1] + r[1:])) ** 4
    w = np.linspace(0.0, 1.0, 3 * len(r)).reshape(-1, 3)
    pi = np.zeros_like(w)
    for _ in range(15):
        out = np.zeros_like(w)
        flux = r4[:, None] * (w[1:] - w[:-1])
        out[1:-1] = (flux[1:] - flux[:-1]) / r[1:-1, None] ** 4
        pi = pi + 1e-9 * out
        w = w + 1e-9 * pi
    x = np.linspace(0.1, 0.9, 64)
    for k in range(3000):
        np.arctanh(x * ((k % 7) + 1) / 8.0).sum()
    return time.perf_counter() - t0


class Tally:
    """Latencies and failures of one pass over the workload.

    Operation times are kept scaled to the reference speed: each round's
    times are multiplied by REF_NOMINAL_S over the mean of the reference
    kernel's time just before and just after that round.
    """

    def __init__(self):
        self.round_s: list[float] = []                 # raw wall time
        self.op_s: dict[str, list[float]] = defaultdict(list)
        self.cli_labels: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def fail(self, label, exc):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            detail = str(exc) if isinstance(exc, workloads.OracleError) else traceback.format_exc()
            print(f"FAILED {label}: {detail}", file=sys.stderr)

    def add(self, timings, scale: float) -> None:
        self.round_s.append(sum(dt for _, dt in timings))
        for op, dt in timings:
            self.op_s[op.label].append(dt * scale)
            if op.cli:
                self.cli_labels.add(op.label)

    def best_round_s(self) -> float:
        """A round with every operation at its fastest in this pass."""
        return sum(min(ts) for ts in self.op_s.values())

    def cli_ms_p50(self) -> float:
        """Median over the CLI operations of each one's fastest latency."""
        return 1e3 * statistics.median(min(self.op_s[k]) for k in self.cli_labels)


def run_round(ops, tally: Tally, tracer=None) -> list:
    """Run and check one round; returns [(op, seconds)] of the timed parts."""
    timings = []
    for op in ops:
        tally.attempted += 1
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, exc
        else:
            error = None
        finally:
            timings.append((op, time.perf_counter() - t0))
            if tracer is not None:
                tracer.active = False
        if error is not None:
            tally.fail(op.label, error)
            continue
        try:
            op.check(result)
        except Exception as exc:
            tally.fail(op.label, exc)
    return timings


def run_pass(rounds, more, tracer=None) -> Tally:
    """Rounds while more(rounds done) holds, each between two timings of
    the reference kernel."""
    tally = Tally()
    ref_before = reference_s()
    while more(len(tally.round_s)):
        timings = run_round(next(rounds), tally, tracer)
        ref_after = reference_s()
        tally.add(timings, REF_NOMINAL_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return tally


def setup_s() -> float:
    """Median over fresh interpreters of the time from start until every
    ledlab module is imported, scaled like the rounds."""
    times = []
    ref_before = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_ALL], check=True, timeout=60)
        dt = time.perf_counter() - t0
        ref_after = reference_s()
        times.append(dt * REF_NOMINAL_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return statistics.median(times)


def timed_pass(workload, seed, seconds, out) -> Tally:
    start = time.perf_counter()
    return run_pass(workloads.rounds(workload, seed, out),
                    lambda done: time.perf_counter() - start < seconds)


def traced_pass(workload, seed, n_rounds, out):
    tracer = Tracer(work=layers.WORK)
    tracer.install()
    try:
        tally = run_pass(workloads.rounds(workload, seed, out),
                         lambda done: done < n_rounds, tracer)
    finally:
        tracer.uninstall()
    return tally, tracer.summary()


def source_identity() -> dict:
    """The git commit when run from a clone, and a digest of src/ always
    (benchmark checkouts need not be git repositories)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed) -> dict:
    return {
        "seed": seed,
        **source_identity(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="scratch directory for CLI outputs")
    args = p.parse_args(argv)
    out = Path(args.out)
    try:
        tally = timed_pass(args.workload, args.seed, args.seconds, out)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            traced, summary = traced_pass(args.workload, args.seed, len(tally.round_s), out)
            values, absent = layers.evaluate(summary)
            values["trace.overhead_s"] = (traced.best_round_s() - tally.best_round_s(), "s")
            values["trace.spans"] = (float(len(summary.span_name)), "count")
            metrics = {k: metric(v, u) for k, (v, u) in values.items()}
            attempted = tally.attempted + traced.attempted
            failed = tally.failed + traced.failed
        else:
            absent = []
            metrics = {
                "setup_s": metric(setup_s(), "s"),
                "wall_s": metric(tally.best_round_s(), "s"),
                "peak_rss_mb": metric(rss_mb, "MB"),
                "cli_ms_p50": metric(tally.cli_ms_p50(), "ms"),
            }
            attempted, failed = tally.attempted, tally.failed
    finally:
        shutil.rmtree(out, ignore_errors=True)
    rounds = sorted(tally.round_s)
    print(json.dumps({"env": environment(args.seed), "rounds": len(rounds),
                      "round_s_min": rounds[0],
                      "round_s_p50": statistics.median(rounds),
                      "round_s_max": rounds[-1],
                      "absent": absent, "correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
