"""E25 — robustness: self-healing recovery cost and budgeted degradation.

The guardrail subsystem (:mod:`repro.core.guardrails`) promises that a
fault in the sharded pool costs *bounded recovery work*, never the
fixpoint: a crashed or stalled worker is restarted and restored from
the coordinator's master state, a corrupted exchange payload costs one
CRC retransmit, and only a persistent fault walks the degradation
ladder (restart → demote → warned single-process fallback).  This
benchmark drives each rung with the deterministic ``DATALOGO_FAULT``
harness, asserts byte-identical fixpoints and exact counter outcomes,
and records each scenario's counters (``--counters``), where the
self-healing counters gate as floors: a drop to zero means the
recovery path silently stopped being exercised.

The second scenario measures the budget guardrail: a known-divergent
program (cyclic bill-of-material over ℕ, taxonomy case (i)) under
``max_iterations`` must surface a structured :class:`BudgetExceeded`
carrying the pre-flight ``may-diverge`` verdict and a non-empty
partial prefix — the counters ``budget_trips`` / ``partial_tuples``
gate that the degradation contract keeps producing usable partials.
"""

from __future__ import annotations

import time
import warnings

from conftest import emit_table, sized

from repro import core, programs, workloads
from repro.core import BudgetExceeded
from repro.semirings import NAT, TROP


def _bytes_of(instance) -> str:
    """A byte-exact rendering (repr distinguishes 0.0 from -0.0)."""
    return "|".join(
        "%s:%s"
        % (
            rel,
            sorted(
                (repr(k), repr(v))
                for k, v in instance.support(rel).items()
            ),
        )
        for rel in sorted(instance.relations())
    )


def _solve_sharded(prog, db, workers):
    return core.solve(
        prog, db, method="seminaive", engine="batched",
        engine_workers=workers,
    )


def _timed(fn, rounds=3):
    """Best-of-N wall plus the last result (counters are deterministic)."""
    wall, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        wall = min(wall, time.perf_counter() - start)
    return wall, result


def test_e25_fault_recovery(benchmark, quick, counters, monkeypatch):
    """Each fault kind against the sharded APSP fixpoint at 2 workers
    (the ladder scenario at 4): byte-identical results, exact recovery
    counters, recorded as ``e25/apsp(n)-w2/{clean,crash-restart,
    stall-restart,corrupt-retransmit,ladder-fallback}``.
    """
    n = sized(quick, 16, 10)
    edges = workloads.random_weighted_digraph(n, 0.3, seed=7)
    db = core.Database(pops=TROP, relations={"E": dict(edges)})
    prog = programs.apsp()

    base = core.solve(prog, db, method="seminaive", engine="batched")
    assert base.steps >= 4, "need a deep enough fixpoint to fault at step 2"
    base_bytes = _bytes_of(base.instance)

    # Stalls are detected by the heartbeat deadline; keep it short so
    # the stall scenario measures recovery, not the detection wait.
    monkeypatch.setenv("DATALOGO_SHARD_DEADLINE_S", "2.0")

    scenarios = (
        # (variant, fault spec, workers, restart budget, expectations)
        ("clean", None, 2, None,
         {"shard_restarts": 0, "crc_retransmits": 0,
          "shard_demotions": 0, "shard_fallbacks": 0}),
        ("crash-restart", "crash@2:1", 2, None,
         {"shard_restarts": 1, "shard_fallbacks": 0}),
        ("stall-restart", "stall@2:1", 2, None,
         {"shard_restarts": 1, "shard_fallbacks": 0,
          "shard_stall_fallbacks": 0}),
        ("corrupt-retransmit", "corrupt@2:1", 2, None,
         {"crc_retransmits": 1, "shard_restarts": 0,
          "shard_fallbacks": 0}),
        # A crash that re-fires in every generation defeats restarts
        # (budget 1 per pool width), demotes 4 → 2, defeats the fresh
        # budget too, and falls back (2 → 1 is below the minimum shard
        # width, so the second demotion attempt is the warned
        # fallback): one restart per rung, one true demotion.
        ("ladder-fallback", "crash@2:0:*", 4, "1",
         {"shard_restarts": 2, "shard_demotions": 1,
          "shard_fallbacks": 1}),
    )

    def run_all():
        out = {}
        for variant, fault, workers, restarts, expected in scenarios:
            if fault is None:
                monkeypatch.delenv("DATALOGO_FAULT", raising=False)
            else:
                monkeypatch.setenv("DATALOGO_FAULT", fault)
            if restarts is None:
                monkeypatch.delenv("DATALOGO_SHARD_RESTARTS", raising=False)
            else:
                monkeypatch.setenv("DATALOGO_SHARD_RESTARTS", restarts)
            with warnings.catch_warnings():
                if variant == "ladder-fallback":
                    warnings.simplefilter("ignore", RuntimeWarning)
                wall, result = _timed(
                    lambda: _solve_sharded(prog, db, workers),
                    # The fault fires once per solve; repeat runs keep
                    # re-injecting it, so every round pays recovery.
                    rounds=1 if variant == "stall-restart" else 3,
                )
            out[variant] = (wall, result, expected)
        monkeypatch.delenv("DATALOGO_FAULT", raising=False)
        return out

    out = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for variant, fault, _workers, _restarts, _expected in scenarios:
        wall, result, expected = out[variant]
        # The recovery contract: every scenario converges to the exact
        # single-process fixpoint with exact aggregate counter parity.
        assert _bytes_of(result.instance) == base_bytes, variant
        assert result.steps == base.steps, variant
        assert result.stats["valuations"] == base.stats["valuations"]
        assert result.stats["products"] == base.stats["products"]
        for counter, value in expected.items():
            assert result.stats[counter] == value, (variant, counter)
        counters.record(f"e25/apsp({n})-w2/{variant}", result.stats)
        rows.append(
            (
                variant,
                fault or "—",
                f"{wall * 1000:.2f}",
                result.stats["shard_restarts"],
                result.stats["crc_retransmits"],
                result.stats["shard_demotions"],
                result.stats["shard_fallbacks"],
            )
        )
    emit_table(
        f"E25: self-healing recovery (APSP, {n} nodes, Trop+)",
        ("scenario", "fault", "wall ms", "restarts", "retransmits",
         "demotions", "fallbacks"),
        rows,
    )


def test_e25_budget_partial(benchmark, quick, counters):
    """A divergent program under an iteration budget: the structured
    trip carries the ``may-diverge`` pre-flight verdict and a usable
    partial prefix whose size gates as a floor."""
    budget = sized(quick, 20, 8)
    edges, costs = workloads.fig_2b_bom()
    db = core.Database(
        pops=NAT,
        relations={"C": {(k,): int(v) for k, v in costs.items()}},
        bool_relations={"E": set(edges)},
    )
    prog = programs.bill_of_material()

    def run():
        start = time.perf_counter()
        try:
            core.solve(prog, db, max_iterations=budget)
        except BudgetExceeded as exc:
            return time.perf_counter() - start, exc
        raise AssertionError("cyclic BOM over ℕ must trip the budget")

    wall, exc = benchmark.pedantic(run, rounds=1, iterations=1)

    assert exc.resource == "iterations"
    assert exc.verdict is not None and exc.verdict.status == "may-diverge"
    partial = exc.partial
    assert partial is not None and partial.steps == budget
    partial_tuples = partial.instance.size()
    assert partial_tuples > 0
    counters.record(
        f"e25/bom-budget({budget})/partial",
        {
            "budget_trips": 1,
            "partial_tuples": partial_tuples,
            "iterations": partial.steps,
        },
    )
    emit_table(
        "E25: budget degradation (cyclic BOM, ℕ)",
        ("budget", "wall ms", "verdict", "partial tuples"),
        [(budget, f"{wall * 1000:.2f}", exc.verdict.describe(),
          partial_tuples)],
    )
