#!/usr/bin/env python
"""Gate benchmark work counters against a checked-in baseline.

Usage::

    python benchmarks/check_joincore_regression.py \
        BENCH_joincore.json benchmarks/baselines/joincore_quick.json \
        [--tolerance 0.10]

    python benchmarks/check_joincore_regression.py \
        BENCH_schedule.json benchmarks/baselines/schedule_quick.json

    python benchmarks/check_joincore_regression.py \
        BENCH_sharded.json benchmarks/baselines/sharded_quick.json

    python benchmarks/check_joincore_regression.py \
        BENCH_robust.json benchmarks/baselines/robust_quick.json

    python benchmarks/check_joincore_regression.py \
        BENCH_serve.json benchmarks/baselines/serve_quick.json \
        --tolerance 0.60

    python benchmarks/check_joincore_regression.py \
        BENCH_magic.json benchmarks/baselines/magic_quick.json

Both files are artifacts of the benchmark suite (see
``benchmarks/conftest.py``): either a legacy single-snapshot
(``*/1`` schema) or a longitudinal trajectory (``*/2`` schema, one run
record per invocation) — for trajectories the **latest** run is gated.
For every benchmark present in the baseline, each gated counter (the
baseline's ``gated_stats``) must stay within the tolerance of the
baseline:

* most counters are *lower-is-better* (``keys_examined``,
  ``fallback_candidates``, fixpoint ``iterations``,
  ``rule_applications``): an increase beyond the tolerance means the
  planner started examining more candidate keys, or the scheduler
  started re-applying rules the condensation should have frozen;
* ``rules_skipped``, ``kernel_cache_hits``, ``codegen_kernels``,
  ``batch_joins``, ``exchange_rounds`` and ``exchange_tuples`` are
  *higher-is-better* floors: a drop beyond the tolerance means
  delta-driven rule activation stopped skipping, compiled kernels
  stopped being reused across iterations, (for ``engine="codegen"``
  benchmark records) the source-generating backend stopped being
  engaged, or (for sharded records) the delta-shipping exchange
  silently stopped running — silent de-optimizations wall time (noisy
  on CI) might hide.  The robustness counters (``shard_restarts``,
  ``crc_retransmits``, ``shard_demotions``, ``shard_fallbacks``,
  ``shard_stall_fallbacks``, ``budget_trips``, ``partial_tuples``) are
  floors for the same reason: each robust-bench scenario injects a
  deterministic fault to drive exactly one recovery path, so a drop
  means the path stopped being exercised.  The serve-bench family
  gates ``qps`` (sustained mixed read/write throughput — use a loose
  ``--tolerance`` for it, CI runners are noisy) and the deterministic
  service counters (``cache_hits``, ``dred_deletions``,
  ``incremental_fallbacks``, ``journal_replays``,
  ``checkpoint_writes``, ``recoveries``) the same way.  The
  magic-bench family gates the demand path's point-query work
  reductions (``rule_app_reduction_x``, ``keys_reduction_x``) and
  ``demanded_atoms`` as floors, and ``demand_fallbacks`` as
  lower-is-better off its 0 baseline.

Wall time is not compared here: the records keep their ``wall_s``, but
end-to-end time belongs to the repo benchmark (``perf/``), which runs
workloads large enough to time.

Benchmarks new in the current run are reported but never fail;
benchmarks missing from the current run fail (a silently skipped
measurement is itself a regression).

Exit status: 0 when clean, 1 on any regression or missing benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

_FAMILIES = (
    "joincore-bench",
    "schedule-bench",
    "sharded-bench",
    "robust-bench",
    "serve-bench",
    "magic-bench",
)

#: Gated counters where *more* is better: these gate as floors
#: (current < baseline × (1 − tolerance) fails).
_HIGHER_IS_BETTER = frozenset(
    {
        "rules_skipped",
        "kernel_cache_hits",
        "codegen_kernels",
        "batch_joins",
        "exchange_rounds",
        "exchange_tuples",
        # Robustness scenarios (robust-bench): each injects a fault or
        # arms a budget expressly to drive one recovery path, so its
        # counter dropping means the path stopped being exercised.
        "shard_restarts",
        "crc_retransmits",
        "shard_demotions",
        "shard_fallbacks",
        "shard_stall_fallbacks",
        "budget_trips",
        "partial_tuples",
        # Serve scenarios (serve-bench): throughput plus the service
        # counters each scenario exists to drive — memoization, the
        # pure-DRed deletion path, the budgeted fallback, and journal
        # recovery.
        "qps",
        "cache_hits",
        "dred_deletions",
        "incremental_fallbacks",
        "journal_replays",
        "checkpoint_writes",
        "recoveries",
        # Demand path (magic-bench): the point-query work reductions
        # versus the full fixpoint — the whole point of the rewrite —
        # and the demanded answer count, which must not shrink.
        "rule_app_reduction_x",
        "keys_reduction_x",
        "demanded_atoms",
    }
)


def load(path: str) -> dict:
    """Load an artifact, reducing a trajectory to its latest run."""
    with open(path) as handle:
        payload = json.load(handle)
    schema = payload.get("schema", "")
    family, _, version = schema.partition("/")
    if family not in _FAMILIES or version not in ("1", "2"):
        raise SystemExit(f"{path}: not a benchmark artifact ({schema!r})")
    if version == "2":
        runs = payload.get("runs", [])
        if not runs:
            raise SystemExit(f"{path}: trajectory has no runs")
        run = runs[-1]
        run.setdefault("gated_stats", [])
        return run
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced benchmark artifact")
    parser.add_argument("baseline", help="checked-in baseline artifact")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed relative drift per gated counter (default 0.10)",
    )
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline = load(args.baseline)
    gated = baseline.get("gated_stats") or ["keys_examined", "fallback_candidates"]

    current_by_name = {b["name"]: b for b in current.get("benchmarks", [])}
    failures = []
    rows = []
    for bench in baseline.get("benchmarks", []):
        name = bench["name"]
        now = current_by_name.pop(name, None)
        if now is None:
            failures.append(f"{name}: missing from current run")
            continue
        for stat in gated:
            base_value = bench.get("stats", {}).get(stat)
            if base_value is None:
                continue
            now_value = now.get("stats", {}).get(stat)
            if now_value is None:
                failures.append(f"{name}: current run lacks stat {stat!r}")
                continue
            marker = ""
            if stat in _HIGHER_IS_BETTER:
                floor = base_value * (1.0 - args.tolerance)
                if now_value < floor:
                    failures.append(
                        f"{name}: {stat} dropped {base_value} -> {now_value} "
                        f"(floor {floor:.1f})"
                    )
                    marker = "  <-- REGRESSION"
            else:
                ceiling = base_value * (1.0 + args.tolerance)
                if now_value > ceiling:
                    failures.append(
                        f"{name}: {stat} regressed {base_value} -> {now_value} "
                        f"(ceiling {ceiling:.1f})"
                    )
                    marker = "  <-- REGRESSION"
            rows.append(
                f"  {name:50s} {stat:20s} {base_value:>10d} -> {now_value:>10d}"
                f"{marker}"
            )

    print(
        "benchmark regression check "
        f"(tolerance {args.tolerance:.0%}, gated: {', '.join(gated)})"
    )
    for row in rows:
        print(row)
    for name in sorted(current_by_name):
        print(f"  {name}: new benchmark (no baseline, not gated)")

    if failures:
        print("\nFAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nOK: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
