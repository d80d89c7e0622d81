"""E24 — sharded semi-naive scaling (delta-shipping exchange).

``engine_workers=N`` hash-partitions every recursive delta across N
persistent worker processes and runs each semi-naive iteration as
partition-local joins plus a repartition exchange that ships *delta
tuples* only (:mod:`repro.core.sharded`).  This benchmark measures the
warm wall time of the sharded APSP fixpoint at 1/2/4 workers against
the single-process batched engine, asserts byte-identical fixpoints,
and records the exchange counters (``--counters``), where
``exchange_tuples``/``exchange_rounds`` gate as floors: a drop to zero
means the delta-shipping exchange silently stopped running.

The scaling wall (4 workers ≥ 2× single-process) is only asserted on
machines with ≥ 4 CPUs at full size — on a 1-core container the pool
is pure overhead and the numbers, while honest, carry no scaling
signal.  Counter floors gate everywhere.
"""

from __future__ import annotations

import os
import time

from conftest import emit_table, sized

from repro import core, programs, workloads
from repro.semirings import TROP

_WORKER_COUNTS = (2, 4)


def test_e24_sharded_scaling(benchmark, quick, counters):
    """APSP fixpoint: single-process batched vs sharded at 2/4 workers.

    Records ``e24/apsp(n)-seminaive/{batched,sharded-w2,sharded-w4}``
    so the counter gate watches the exchange floors.
    """
    n = sized(quick, 20, 10)
    p = sized(quick, 0.22, 0.3)
    edges = workloads.random_weighted_digraph(n, p, seed=3)
    db = core.Database(pops=TROP, relations={"E": dict(edges)})
    prog = programs.apsp()

    # Warm-up: kernel compilation is cached process-wide; one throwaway
    # solve per variant takes the measurement at the steady state the
    # persistent workers see (each worker compiles its own kernels once
    # per run, which the warm walls below include — pool spin-up is
    # part of the cost being claimed).
    core.solve(prog, db, method="seminaive", engine="batched")
    for workers in _WORKER_COUNTS:
        core.solve(
            prog, db, method="seminaive", engine="batched",
            engine_workers=workers,
        )

    def run_all():
        walls = {}
        results = {}
        variants = [("batched", 1)] + [
            (f"sharded-w{w}", w) for w in _WORKER_COUNTS
        ]
        for variant, workers in variants:
            # Best of 3: single-shot walls are noise at these sizes;
            # the counters are deterministic either way.
            walls[variant] = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                result = core.solve(
                    prog, db, method="seminaive", engine="batched",
                    engine_workers=workers,
                )
                walls[variant] = min(
                    walls[variant], time.perf_counter() - start
                )
            results[variant] = result
            counters.record(f"e24/apsp({n})-seminaive/{variant}", result.stats)
        return walls, results

    walls, results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    base = results["batched"]
    for workers in _WORKER_COUNTS:
        sharded = results[f"sharded-w{workers}"]
        # The correctness gate: the coordinator's deterministic merge
        # keeps the fixpoint byte-identical to the single-process
        # engine, with exact aggregate counter parity.
        assert sharded.instance.equals(base.instance)
        assert sharded.steps == base.steps
        assert sharded.stats["valuations"] == base.stats["valuations"]
        assert sharded.stats["products"] == base.stats["products"]
        assert sharded.stats["shard_fallbacks"] == 0
        assert sharded.stats["shard_workers"] == workers
        # The exchange actually ran: deltas crossed the pipes.
        assert sharded.stats["exchange_rounds"] > 0
        assert sharded.stats["exchange_tuples"] > 0

    rows = [
        (
            variant,
            f"{walls[variant] * 1000:.2f}",
            round(walls["batched"] / walls[variant], 2),
            results[variant].stats.get("exchange_rounds", 0),
            results[variant].stats.get("exchange_tuples", 0),
        )
        for variant in walls
    ]
    emit_table(
        f"E24: sharded semi-naive scaling (APSP, {n} nodes, Trop+)",
        ("variant", "wall ms", "speedup", "exch rounds", "exch tuples"),
        rows,
    )

    if not quick and (os.cpu_count() or 1) >= 4:
        # The scaling acceptance gate: at 4 workers the warm wall beats
        # the single-process batched engine by ≥ 2× (near-linear on the
        # partition-local join work; the exchange is the serial tail).
        # Only meaningful with real cores under the pool.
        speedup_w4 = walls["batched"] / walls["sharded-w4"]
        assert speedup_w4 >= 2.0, rows
