"""E26 — the crash-safe service: sustained qps, tail latency, recovery.

Three scenarios drive every serve subsystem and record their
deterministic counters (``--counters``, gated by ``check_counters.py``;
serve throughput and latency are measured by the repo benchmark's
``serve_read``/``serve_write`` workloads, not gated here):

* **mixed read/write** — a warm TROP shortest-path service under an
  interleaved workload (point queries : scans : mutation batches at
  roughly 16:4:1).  Prints sustained qps and p50/p99 latency.  The
  deterministic counters — ``cache_hits`` (version-vector
  memoization) and ``dred_deletions`` (the pure-DRed deletion path) —
  gate as floors.
* **crash recovery** — applies a final batch and abandons the instance
  unclosed, as a killed process leaves it (no checkpoint is due at
  that ``seq``, so the batch lives only in the journal), then times
  the reopen: last checkpoint + journal-suffix replay.
  ``journal_replays`` / ``checkpoint_writes`` / ``recoveries`` gate as
  floors.
* **budgeted fallback** — a THREE-valued closure service (THREE is
  not naturally ordered, so every shrink degrades to a counted full
  re-solve): ``incremental_fallbacks`` gates that the escape hatch
  keeps being exercised and keeps the fixpoint exact.
"""

from __future__ import annotations

import time

from conftest import emit_table, sized

from repro import core, programs, workloads
from repro.core.incremental import Mutation, fingerprint
from repro.core.journal import DurableInstance
from repro.core.serve import DatalogService
from repro.semirings import THREE, TROP


def _graph_db(n_nodes: int, seed: int = 7):
    edges = workloads.random_weighted_digraph(n_nodes, 0.12, seed=seed)
    return core.Database(
        pops=TROP,
        relations={"E": {(u, v): w for (u, v), w in edges.items()}},
    )


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[idx]


def test_e26_mixed_read_write_qps(quick, counters, tmp_path):
    n_nodes = sized(quick, 60, 24)
    ops = sized(quick, 2100, 420)
    db = _graph_db(n_nodes)
    nodes = sorted({u for (u, _v) in db.relations["E"]})
    program = programs.sssp(nodes[0])
    with DatalogService(
        program, TROP, str(tmp_path), database=db, checkpoint_every=50
    ) as service:
        latencies = []
        start = time.perf_counter()
        for i in range(ops):
            op_start = time.perf_counter()
            if i % 21 == 20:
                # ~1/21 ops is a mutation batch: alternate an insert
                # with a delete of the same edge so reruns stay stable
                # and the deletes keep driving the DRed path.
                u = nodes[i % len(nodes)]
                v = nodes[(i * 7 + 1) % len(nodes)]
                if (i // 21) % 2 == 0:
                    service.mutate([Mutation("insert", "E", (u, v), 0.9)])
                else:
                    service.mutate([Mutation("delete", "E", (u, v), None)])
            elif i % 5 == 4:
                service.scan("E", pattern=(nodes[i % len(nodes)], None))
            else:
                service.query("L", (nodes[i % len(nodes)],))
            latencies.append(time.perf_counter() - op_start)
        wall = time.perf_counter() - start
        snap = service.stats_snapshot()
        # the service answered every op and stayed exact
        ref = core.solve(program, service.durable.database, method="seminaive")
        assert fingerprint(service.durable.instance) == fingerprint(
            ref.instance
        )
        assert snap["cache_hits"] > 0, "memoization never hit"
        assert snap["dred_deletions"] > 0, "no deletion ran pure DRed"
        assert snap["incremental_fallbacks"] == 0, (
            "TROP service should never need the escape hatch"
        )
        qps = ops / wall
        p50_us = _percentile(latencies, 0.50) * 1e6
        p99_us = _percentile(latencies, 0.99) * 1e6
        counters.record("e26/serve/mixed-read-write", snap)
        emit_table(
            "E26 mixed read/write service (TROP sssp)",
            ["metric", "value"],
            [
                ["nodes", n_nodes],
                ["ops", ops],
                ["qps", f"{qps:,.0f}"],
                ["p50", f"{p50_us:,.0f} µs"],
                ["p99", f"{p99_us:,.0f} µs"],
                ["cache hits", snap["cache_hits"]],
                ["DRed deletions", snap["dred_deletions"]],
            ],
        )


def test_e26_crash_recovery(quick, counters, tmp_path):
    n_nodes = sized(quick, 40, 20)
    batches = sized(quick, 24, 10)
    db = _graph_db(n_nodes, seed=11)
    nodes = sorted({u for (u, _v) in db.relations["E"]})
    program = programs.sssp(nodes[0])
    d = str(tmp_path)
    crash_at = batches + 1
    assert crash_at % 8, "the final batch must be journal-only"
    dur = DurableInstance(d, program, TROP, database=db, checkpoint_every=8)
    for i in range(batches):
        u, v = nodes[i % len(nodes)], nodes[(i * 3 + 1) % len(nodes)]
        dur.apply([Mutation("insert", "E", (u, v), 1.0 + i * 0.1)])
    # The last batch is acknowledged, then the process "dies": ``dur``
    # is abandoned unclosed, and the reopen sees only the disk.
    dur.apply([Mutation("insert", "E", (nodes[0], nodes[-1]), 0.1)])

    start = time.perf_counter()
    recovered = DurableInstance(d, program, TROP, checkpoint_every=8)
    recovery_wall = time.perf_counter() - start
    # the last batch lives only in the journal: recovery must replay
    # it, landing on the uncrashed state
    assert recovered.seq == crash_at
    assert recovered.stats["journal_replays"] >= 1
    ref = core.solve(program, recovered.database, method="seminaive")
    assert fingerprint(recovered.instance) == fingerprint(ref.instance)
    snap = recovered.stats_snapshot()
    counters.record(
        "e26/serve/crash-recovery",
        {
            "journal_replays": snap["journal_replays"],
            "checkpoint_writes": dur.stats["checkpoint_writes"],
            "recoveries": snap["recoveries"],
        },
    )
    recovered.close()
    emit_table(
        "E26 crash-during-mutation recovery (TROP)",
        ["metric", "value"],
        [
            ["batches before crash", batches],
            ["recovery wall", f"{recovery_wall * 1e3:,.1f} ms"],
            ["journal replays", snap["journal_replays"]],
            ["checkpoints (writer)", dur.stats["checkpoint_writes"]],
        ],
    )


def test_e26_budgeted_fallback(quick, counters, tmp_path):
    deletes = sized(quick, 6, 3)
    edges = {("a", "b"): True, ("b", "c"): True, ("c", "d"): False,
             ("d", "a"): True, ("a", "c"): True}
    db = core.Database(pops=THREE, relations={"E": dict(edges)})
    program = programs.transitive_closure()
    keys = sorted(edges)
    with DatalogService(
        program, THREE, str(tmp_path), database=db
    ) as service:
        for i in range(deletes):
            key = keys[i % len(keys)]
            service.mutate([Mutation("delete", "E", key, None)])
            service.mutate(
                [Mutation("insert", "E", key, edges[key])]
            )
        snap = service.stats_snapshot()
        # THREE is not naturally ordered: every delete must have taken
        # the counted full re-solve escape hatch — and stayed exact.
        assert snap["incremental_fallbacks"] >= deletes
        ref = core.solve(program, service.durable.database, method="naive")
        assert fingerprint(service.durable.instance) == fingerprint(
            ref.instance
        )
        counters.record("e26/serve/budgeted-fallback", snap)
        emit_table(
            "E26 budgeted fallback (THREE closure)",
            ["metric", "value"],
            [
                ["delete/reinsert rounds", deletes],
                ["incremental_fallbacks", snap["incremental_fallbacks"]],
                ["full_solves", snap["full_solves"]],
            ],
        )
