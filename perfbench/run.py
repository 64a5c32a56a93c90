"""Benchmark entry point for ledlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record results.jsonl]

Run from the repository root.  Workloads (see workloads.py): relax-shell,
relax-volume-far, lib-mix.  With --trace 0 it prints the end-to-end
metrics (setup_s, wall_s, peak_rss_mb, cli_ms_p50); with --trace 1 the
per-layer metrics of a traced repeat of the same operations (layers.py).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; error_rate is failed/attempted.

The workload runs in one fresh child process (worker.py) with the BLAS
and OpenMP thread pools capped at 1 (the machine the baseline was taken
on has 2 cores, and the child is the only load).  setup_s is the median
over several fresh interpreters of the time from starting the
interpreter until ledlab and all its modules are imported.  All timings
are scaled to a fixed machine speed; see worker.py and RATIONALE.md.

--record appends the run, with its environment (commit or source digest,
versions, core count, CPU model, thread caps, seed), as one JSON line to
a file; compare.py reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0
THREAD_CAPS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args) -> dict:
    """The worker's report, or SystemExit(1) with the reason on stderr."""
    if not (SRC / "ledlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ledlab sources under {SRC}")
    out = ROOT / ".perfbench_work" / str(os.getpid())
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        sys.exit(f"perfbench: worker timed out after {TIME_LIMIT_S:g} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="relax-shell, relax-volume-far or lib-mix")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None, help="append this run to a JSON-lines file")
    args = p.parse_args(argv)

    report = run_worker(args)
    metrics = report["metrics"]
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    env_record = report["env"]

    print(f"workload {args.workload}  seed {args.seed}  rounds {report['rounds']}, raw "
          f"{report['round_s_min']:.4g} / {report['round_s_p50']:.4g} / "
          f"{report['round_s_max']:.4g} s (fastest / median / slowest)  "
          f"error_rate {result['failed'] / result['attempted']:.4g}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if report["absent"]:
        print("absent: " + ", ".join(report["absent"]))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env_record, "absent": report["absent"],
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
