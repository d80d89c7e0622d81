#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perf/compare.py A B

``A`` and ``B`` are each a results file written by ``perf/run.py`` or a
directory of them (a set of runs; a metric's value is the median over the
set).  Prints one row per workload × end-to-end metric: both medians, the
change as a share of A, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``          B is not worse than A by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread of this metric on this workload
                  (IQR ÷ median over set A when it holds ≥ 5 runs, else
                  over ``perf/baseline/``) is wider than the bound, or the
                  hypervisor stole a different share of CPU time from the
                  two sets (medians more than 5 points apart: every
                  CPU-bound row then moves by tens of per cent on
                  identical code), so the benchmark cannot tell.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)

Values = Dict[str, Dict[str, List[float]]]  # workload → metric → one per run

#: Sets whose median ``steal_share`` differ by more than this were taken
#: on what amounts to two different machines.
STEAL_GAP = 0.05


def load(path: str) -> Tuple[Values, List[float]]:
    """Metric values of a results file or a directory of them, and the
    ``steal_share`` of each run that recorded one."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    values: Values = {}
    steal: List[float] = []
    for name in files:
        with open(name) as handle:
            document = json.load(handle)
        if not isinstance(document, dict) or document.get("schema") != "perf-results/1":
            continue
        for workload, row in document["workloads"].items():
            for metric, value in row["e2e"].items():
                values.setdefault(workload, {}).setdefault(metric, []).append(value)
        if document["environment"].get("steal_share") is not None:
            steal.append(document["environment"]["steal_share"])
    if not values:
        raise SystemExit(f"{path}: no perf-results/1 file")
    return values, steal


def steal_gap(a: List[float], b: List[float]) -> float:
    """How far apart the two sets' median stolen CPU shares are (0 when a
    set did not record it)."""
    return abs(statistics.median(a) - statistics.median(b)) if a and b else 0.0


def spread(runs: List[float]) -> Optional[float]:
    """IQR ÷ median, as the benchmark contract defines run-to-run spread."""
    if len(runs) < 5:
        return None
    q1, _q2, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / statistics.median(runs)


def compare(
    a: Values, b: Values, baseline: Values, contract: dict, same_host: bool = True
) -> List[dict]:
    rows = []
    for spec in contract["workloads"]:
        workload = spec["name"]
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in a.get(workload, {}) or name not in b.get(workload, {}):
                continue
            base = statistics.median(a[workload][name])
            other = statistics.median(b[workload][name])
            change = (other - base) / base
            worse_by = change if metric["better"] == "lower" else -change
            noise = spread(a[workload][name])
            if noise is None:
                noise = spread(baseline.get(workload, {}).get(name, []))
            if not same_host or (noise is not None and noise > bound):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": base, "b": other, "change": change, "bound": bound,
                "spread": noise, "verdict": verdict,
            })
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    baseline_dir = os.path.join(PERF, "baseline")
    baseline = load(baseline_dir)[0] if glob.glob(os.path.join(baseline_dir, "*.json")) else {}
    (a, steal_a), (b, steal_b) = load(argv[0]), load(argv[1])
    gap = steal_gap(steal_a, steal_b)
    rows = compare(a, b, baseline, contract, same_host=gap <= STEAL_GAP)
    print(
        f"{'workload':12s} {'metric':14s} {'A':>12s} {'B':>12s} unit  "
        f"{'B vs A':>8s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    for r in rows:
        noise = "   n/a" if r["spread"] is None else f"{r['spread']:6.1%}"
        print(
            f"{r['workload']:12s} {r['metric']:14s} {r['a']:12.4f} {r['b']:12.4f} "
            f"{r['unit']:5s} {r['change']:+8.1%} {r['bound']:6.0%} {noise:>7s}  "
            f"{r['verdict']}"
        )
    print("change = (B - A) / A, with A as the base of every ratio")
    if gap > STEAL_GAP:
        print(
            f"unresolved throughout: the sets' median stolen CPU shares are "
            f"{gap:.1%} apart; measure both again, alternately"
        )
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
