#!/usr/bin/env python3
"""A/A study in driver mode: the same code measured twice, ten seeds each.

    python3 perf/aa.py [--seeds 31-40] [--workload W ...] [--seconds S] [--json FILE]

For every seed and workload it runs ``perf/run.py --workload W --seed S
--trace 0`` twice, once for set A and once for set B, alternating — so a
slow spell of the host falls on both sets alike.  It prints, per workload ×
end-to-end metric, both medians, both spreads (IQR ÷ median over the
seeds, as the benchmark driver computes it), how much worse B's median is
than A's, and the bound from ``BENCHMARK.json``; ``--json`` keeps every
run's numbers with the share of CPU time the hypervisor stole during it.

Exits 1 when a spread (``setup_s`` aside) or a B-vs-A difference exceeds its
bound: then the benchmark cannot meet its own bounds on this host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from run import cpu_jiffies

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)


def one_run(workload: str, seed: int, seconds: int, out: str) -> Dict[str, Any]:
    stolen_0, total_0 = cpu_jiffies()
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--out", out],
        capture_output=True, text=True,
    )
    stolen, total = cpu_jiffies()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    row = {name: m["value"] for name, m in line["metrics"].items()}
    row.update(
        seed=seed, wall_s=time.monotonic() - started,
        steal_share=(stolen - stolen_0) / max(1, total - total_0),
    )
    return row


def spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="31-40", help="first-last")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json")
    parser.add_argument("--out", default=os.path.join(PERF, "out"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    seconds = args.seconds or contract["run_seconds"]
    runs: Dict[str, Dict[str, List[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    for seed in range(first, last + 1):
        for workload in workloads:
            for which in ("A", "B") if seed % 2 else ("B", "A"):
                runs[workload][which].append(one_run(workload, seed, seconds, args.out))
        print(f"seed {seed} done", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seconds": seconds, "runs": runs}, handle, indent=1, sort_keys=True)
    print("| workload | metric | unit | A median | A spread | B median | B spread "
          "| B worse than A by | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    failed = False
    for workload in workloads:
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in runs[workload]["A"]]
            b = [r[name] for r in runs[workload]["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            wide = name != "setup_s" and max(spread(a), spread(b)) > bound
            failed = failed or wide or abs(worse) > bound
            print(f"| `{workload}` | `{name}` | {metric['unit']} | {med_a:.4g} | "
                  f"{spread(a):.1%} | {med_b:.4g} | {spread(b):.1%} | {worse:+.1%} | "
                  f"{bound:.0%} |")
    steal = [r["steal_share"] for sets in runs.values() for rs in sets.values() for r in rs]
    walls = [r["wall_s"] for sets in runs.values() for rs in sets.values() for r in rs]
    print(f"\nCPU time stolen per run: median {statistics.median(steal):.1%}, "
          f"max {max(steal):.1%}; a run took {statistics.fmean(walls):.1f} s on "
          f"average, {max(walls):.1f} s at most")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
