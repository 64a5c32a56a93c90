"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that `run.py --record FILE` appends.  For
every workload and metric present in both, one row gives each side's
median and quartiles over its runs and a verdict:

  better        the new side wins at least 9 in 10 runs paired by seed
                (by order where seeds differ) and its median improves
                on the base median by more than the base's quartile spread
  worse         the new median is worse than the base median by more than
                the metric's bound in BENCHMARK.json (per-layer metrics
                have no bound: the mirror of the `better` rule)
  within-bound  neither, and the base spread is inside the bound
  unresolved    the base spread is wider than the bound, so a change of
                the bound's size cannot be seen; also any per-layer
                metric that is neither better nor worse

Runs that failed an oracle are listed and left out of the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, metric): {seed: value}}, plus the failed runs."""
    values, failed = defaultdict(dict), []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not rec["result"]["correct"]:
                failed.append((rec["workload"], rec["seed"]))
                continue
            for name, m in rec["result"]["metrics"].items():
                values[(rec["workload"], name)][rec["seed"]] = m["value"]
    return values, failed


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(base: dict, new: dict):
    common = sorted(set(base) & set(new))
    if common:
        return [(base[s], new[s]) for s in common]
    return list(zip(base.values(), new.values()))


def verdict(base: dict, new: dict, better: str, bound) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    n_med = statistics.median(new.values())
    gain = sign * (b_med - n_med)            # > 0: new is better
    spread = b_q3 - b_q1
    paired = pairs(base, new)
    wins = sum(sign * (b - n) > 0 for b, n in paired)
    losses = sum(sign * (b - n) < 0 for b, n in paired)
    if paired and wins >= 0.9 * len(paired) and gain > spread:
        return "better"
    if bound is None:
        if paired and losses >= 0.9 * len(paired) and -gain > spread:
            return "worse"
        return "unresolved"
    if -gain > bound * abs(b_med):
        return "worse"
    if spread > bound * abs(b_med):
        # the guide's exception: every new run better than every base run
        if all(sign * (b - n) > 0 for b in base.values() for n in new.values()):
            return "better"
        return "unresolved"
    return "within-bound"


def specs():
    bench = json.loads(BENCHMARK.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    spec = specs()
    base, base_failed = load(args.base)
    new, new_failed = load(args.new)
    for label, failed in (("base", base_failed), ("new", new_failed)):
        for workload, seed in failed:
            print(f"{label}: failed run {workload} seed {seed}")
    header = (f"{'workload':18s} {'metric':44s} {'n':>5s} {'base q1/med/q3':>32s} "
              f"{'new q1/med/q3':>32s} {'change':>8s}  verdict")
    print(header)
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in spec:
            continue
        better, bound = spec[name]
        b, n = base[key], new[key]
        bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
        print(f"{workload:18s} {name:44s} {len(b):2d}/{len(n):<2d} "
              f"{bq[0]:10.4g} {bq[1]:10.4g} {bq[2]:10.4g} "
              f"{nq[0]:10.4g} {nq[1]:10.4g} {nq[2]:10.4g} {change:+8.2%}  "
              f"{verdict(b, n, better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
