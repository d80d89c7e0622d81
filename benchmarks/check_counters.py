#!/usr/bin/env python
"""Gate the benchmarks' work counters against a checked-in baseline.

Usage::

    python -m pytest benchmarks/bench_e*.py -q --quick --benchmark-disable \\
        --counters BENCH_counters.json
    python benchmarks/check_counters.py \\
        BENCH_counters.json benchmarks/baselines/counters_quick.json

Both files are ``counters/1`` snapshots written by ``--counters`` (see
``benchmarks/conftest.py``).  Every :data:`GATED` counter a baseline
record carries must stay within :data:`TOLERANCE` of its value: a
``"ceiling"`` counter is work done, so a rise beyond it fails; a
``"floor"`` counter is a mechanism a bench scenario exists to drive, so
a drop beyond it means the mechanism silently stopped running.  A
baseline record missing from the current snapshot fails; a new record
is reported, never gated.  Wall time belongs to ``perf/``, not here.

Exit status: 0 when clean, 1 on any regression or missing record.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

SCHEMA = "counters/1"
TOLERANCE = 0.10

#: Every gated counter and its direction.
GATED = {
    # Work done: the planner, scheduler, engines or demand path.
    "keys_examined": "ceiling",
    "fallback_candidates": "ceiling",
    "iterations": "ceiling",
    "rule_applications": "ceiling",
    "valuations": "ceiling",
    "demand_fallbacks": "ceiling",
    # Compiled engines: delta-driven skipping, kernel reuse, codegen, batches.
    "rules_skipped": "floor",
    "kernel_cache_hits": "floor",
    "codegen_kernels": "floor",
    "batch_joins": "floor",
    # The sharded exchange and the self-healing ladder each fault drives.
    "exchange_rounds": "floor",
    "exchange_tuples": "floor",
    "shard_restarts": "floor",
    "crc_retransmits": "floor",
    "shard_demotions": "floor",
    "shard_fallbacks": "floor",
    "shard_stall_fallbacks": "floor",
    # Budget degradation: the trip and its usable partial.
    "budget_trips": "floor",
    "partial_tuples": "floor",
    # Serve: memoization, pure DRed, the counted fallback, recovery.
    "cache_hits": "floor",
    "dred_deletions": "floor",
    "incremental_fallbacks": "floor",
    "journal_replays": "floor",
    "checkpoint_writes": "floor",
    "recoveries": "floor",
    # Demand path: full over demanded work (in hundredths), and its answers.
    "rule_app_reduction_x100": "floor",
    "keys_reduction_x100": "floor",
    "demanded_atoms": "floor",
}

Snapshot = Dict[str, Dict[str, int]]


def load(path: str) -> Snapshot:
    """Read a snapshot as ``{record name: {counter: value}}``."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} snapshot")
    return {b["name"]: b["stats"] for b in payload["benchmarks"]}


def check(current: Snapshot, baseline: Snapshot) -> Tuple[List[str], List[str]]:
    """Gate ``current`` against ``baseline``: (report lines, failures)."""
    lines: List[str] = []
    failures: List[str] = []
    for name, base_stats in sorted(baseline.items()):
        now_stats = current.get(name)
        if now_stats is None:
            failures.append(f"{name}: missing from current run")
            continue
        for stat, base in sorted(base_stats.items()):
            direction = GATED.get(stat)
            if direction is None:
                continue
            now = now_stats.get(stat)
            if now is None:
                failures.append(f"{name}: current run lacks {stat!r}")
                continue
            ceiling = direction == "ceiling"
            limit = base * (1.0 + TOLERANCE if ceiling else 1.0 - TOLERANCE)
            bad = now > limit if ceiling else now < limit
            if bad:
                failures.append(f"{name}: {stat} {base} -> {now} ({direction} {limit:.1f})")
            marker = "  <-- REGRESSION" if bad else ""
            lines.append(f"  {name:44s} {stat:24s} {base:>10d} -> {now:>10d}{marker}")
    for name in sorted(set(current) - set(baseline)):
        lines.append(f"  {name}: new record (no baseline, not gated)")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("current", help="freshly produced counters snapshot")
    parser.add_argument("baseline", help="checked-in baseline snapshot")
    args = parser.parse_args(argv)
    lines, failures = check(load(args.current), load(args.baseline))
    print(f"counter regression check (tolerance {TOLERANCE:.0%})")
    print("\n".join(lines))
    if failures:
        print("\nFAILED:\n" + "\n".join(f"  {f}" for f in failures))
        return 1
    print("\nOK: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
