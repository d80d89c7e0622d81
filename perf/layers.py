"""Per-layer metrics: turn one traced pass into named numbers.

Rule for every ``<span>_ms`` metric: **self time per operation** (mean
over the traced ops) — a span's duration minus its children's — so the
values of one workload add up to its traced op time and a layer's share
is its sum over the total.  ``0`` means the layer is not on that
workload's op path.  Counters come from the program's own exact counts
(``result.stats``, ``/stats``, ``/mutate`` replies), never from timing.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from procs import Host, child_env
from tracing import CANARY, attribute
from workloads import Sample, Workload

ENGINES = ("interpreted", "compiled", "codegen", "batched")

#: Spans whose self time is reported under ``<name>_ms``.
SPAN_METRICS = (
    "import.repro", "parser.parse", "cli.load_database", "cli.print",
    "io.encode_instance", "io.decode_checkpoint", "instance.database_init",
    "instance.active_domain", "guardrails.preflight", "demand.rewrite",
    "scheduler.self", "planner.build_plan", "kernels.compile",
    "kernels.execute", "indexes.build", "seminaive.bootstrap",
    "seminaive.self", "naive.ico", "journal.append", "journal.fsync",
    "journal.checkpoint", "journal.load_checkpoint", "journal.replay_decode",
)

#: name → unit, in report order.  BENCHMARK.json's ``per_layer`` lists
#: exactly these.
UNITS: Dict[str, str] = {
    # Whole-process numbers from the untraced reference loop: too noisy on
    # a shared box to gate as end-to-end metrics, still worth recording.
    "process.cpu_ms_per_op": "ms",
    "process.op_p95_ms": "ms",
    **{name + "_ms": "ms" for name in SPAN_METRICS},
    "import.numpy_ms": "ms",
    "demand.fallbacks": "count",
    "demand.demanded_atoms": "count",
    "scheduler.strata": "count",
    "planner.plans": "count",
    "kernels.compiles": "count",
    "kernels.executes": "count",
    "codegen.generate_ms": "ms",
    "codegen.execute_ms": "ms",
    "batched.build_ms": "ms",
    "batched.execute_ms": "ms",
    **{f"engine.{e}.solve_ms": "ms" for e in ENGINES},
    "indexes.builds": "count",
    "indexes.keys_examined": "count",
    "indexes.probes": "count",
    "seminaive.iterations": "count",
    "naive.iterations": "count",
    "naive.rule_applications": "count",
    "naive.products": "count",
    "semirings.add_ns": "ns",
    "semirings.mul_ns": "ns",
    "semirings.value_ops_share": "ratio",
    "incremental.apply_insert_ms": "ms",
    "incremental.apply_delete_ms": "ms",
    "incremental.fallbacks": "count",
    "incremental.full_solves": "count",
    "incremental.dred_marked_per_delete": "count",
    "incremental.warm_iterations_per_op": "count",
    "journal.fsyncs_per_batch": "count",
    "journal.bytes_per_batch": "B",
    "journal.checkpoint_bytes": "B",
    "journal.replay_apply_ms_per_record": "ms",
    "serve.query_direct_us": "us",
    "serve.scan_direct_us": "us",
    "serve.http_overhead_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.query_p99_ms": "ms",
    "serve.scan_p50_ms": "ms",
    "serve.mutate_p50_ms": "ms",
    "serve.mutate_max_ms": "ms",
    "serve.ryw_read_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.refused": "count",
    "sharded.w2_ratio": "ratio",
    "sharded.fallbacks": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _merge(into: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        into[key] += value


def book(span_lists: List[list], windows: List[Tuple[int, int]]):
    """Sum :func:`tracing.attribute` over every program process."""
    self_ns: Dict[str, float] = defaultdict(float)
    total_ns: Dict[str, float] = defaultdict(float)
    count: Dict[str, float] = defaultdict(float)
    stats: Dict[str, float] = defaultdict(float)
    for spans in span_lists:
        own, total, seen, captured = attribute(spans, windows)
        _merge(self_ns, own)
        _merge(total_ns, total)
        _merge(count, seen)
        for attrs in captured:
            _merge(stats, attrs)
    return self_ns, total_ns, count, stats


def numpy_import_ms(seed: int) -> float:
    """Cumulative cost of importing ``numpy`` inside ``import repro.cli``,
    from the interpreter's own ``-X importtime`` report (0 if absent)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=child_env(seed), capture_output=True, text=True,
    )
    match = re.search(r"import time:\s+\d+ \|\s+(\d+) \|\s+numpy$", proc.stderr, re.M)
    return int(match.group(1)) / 1e3 if match else 0.0


def ablate(w: Workload, run_dir: str, reps: int) -> Tuple[Dict[str, float], set]:
    """Engine ablation (median of ``reps`` solves per engine), sharding
    ratio, ⊕/⊗ microbenchmark and direct service reads, all on this
    workload's own program and EDB, in a traced solver host."""
    out: Dict[str, float] = {}
    host = Host(
        w.seed, program=w.program, edb=w.edb, pops=w.pops, method=w.method,
        trace=True,
    )
    missing = set(host.missing)
    try:
        reference = None
        for engine in ENGINES:
            walls = []
            self_ns: Dict[str, float] = defaultdict(float)
            for _ in range(reps):
                reply = host.call("solve", engine=engine)
                start, end = reply["window"]
                walls.append((end - start) / 1e6)
                own, _total, _count, _attrs = attribute(
                    reply["spans"], [(start, end)]
                )
                _merge(self_ns, own)
                if reference is None:
                    reference = reply["answer"]
                elif reply["answer"] != reference:
                    raise AssertionError(f"engine={engine} changed the fixpoint")
            out[f"engine.{engine}.solve_ms"] = statistics.median(walls)
            for span, metric in (
                ("codegen.generate", "codegen.generate_ms"),
                ("codegen.execute", "codegen.execute_ms"),
                ("batched.build", "batched.build_ms"),
                ("batched.execute", "batched.execute_ms"),
            ):
                if span.split(".")[0] == engine:
                    out[metric] = self_ns[span] / reps / 1e6
        if w.method == "seminaive":
            walls, fallbacks = [], 0
            for _ in range(min(reps, 2)):
                reply = host.call("solve", workers=2)
                start, end = reply["window"]
                walls.append((end - start) / 1e6)
                fallbacks += reply["stats"].get("shard_fallbacks", 0)
                if reply["answer"] != reference:
                    raise AssertionError("engine_workers=2 changed the fixpoint")
            out["sharded.w2_ratio"] = min(walls) / out["engine.compiled.solve_ms"]
            out["sharded.fallbacks"] = float(fallbacks)
        micro = host.call("microbench")
        out["semirings.add_ns"] = micro["add_ns"]
        out["semirings.mul_ns"] = micro["mul_ns"]
        script = getattr(w, "script", [])[:512]
        if script:
            direct = host.call(
                "direct", data_dir=os.path.join(run_dir, "direct"),
                queries=[_key_of(p) for k, p, _want in script if k == "query"],
                scans=[_key_of(p) for k, p, _want in script if k == "scan"],
            )
            out["serve.query_direct_us"] = direct["query_us"]
            out["serve.scan_direct_us"] = direct["scan_us"]
    finally:
        host.stop()
    return out, missing


def _key_of(path: str) -> List[Any]:
    raw = path.rsplit("=", 1)[1].split(",")
    return [None if atom == "_" else atom for atom in raw]


def compute(
    w: Workload,
    samples: List[Sample],
    reference_p50_ms: float,
    extras: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Every per-layer metric for one traced pass (see :data:`UNITS`), and
    each layer's share of the traced op time."""
    n = len(samples)
    windows = [s.window for s in samples]
    op_ns = sum(end - start for start, end in windows)
    self_ns, total_ns, count, stats = book(w.spans, windows)
    latency_ms: Dict[str, List[float]] = defaultdict(list)
    for s in samples:
        latency_ms[s.kind].append(s.latency_s * 1e3)
    out: Dict[str, float] = dict.fromkeys(UNITS, 0.0)
    out.update(extras)
    for name in SPAN_METRICS:
        out[name + "_ms"] = self_ns[name] / n / 1e6
    out["import.numpy_ms"] *= count["import.repro"] / n  # imports per op
    out["demand.fallbacks"] = stats["demand_fallbacks"] / n
    out["demand.demanded_atoms"] = w.notes.get("demanded_atoms", 0.0) / n
    out["scheduler.strata"] = stats["strata"] / n
    out["planner.plans"] = count["planner.build_plan"] / n
    out["kernels.compiles"] = count["kernels.compile"] / n
    out["kernels.executes"] = count["kernels.execute"] / n
    out["indexes.builds"] = count["indexes.build"] / n
    out["indexes.keys_examined"] = stats["keys_examined"] / n
    out["indexes.probes"] = stats["probes"] / n
    if count["seminaive.self"]:
        out["seminaive.iterations"] = stats["iterations"] / n
    out["naive.iterations"] = count["naive.ico"] / n
    out["naive.rule_applications"] = stats["rule_applications"] / n
    out["naive.products"] = stats["products"] / n
    value_ns = stats["products"] * (out["semirings.add_ns"] + out["semirings.mul_ns"])
    out["semirings.value_ops_share"] = value_ns / op_ns if op_ns else 0.0

    replies = getattr(w, "replies", [])
    for kind in ("insert", "delete"):
        walls = [r["wall_s"] * 1e3 for k, r in replies if k == kind]
        if walls:
            out[f"incremental.apply_{kind}_ms"] = statistics.fmean(walls)
    marked = [r["dred_marked"] for k, r in replies if k == "delete"]
    if marked:
        out["incremental.dred_marked_per_delete"] = statistics.fmean(marked)
    out["incremental.fallbacks"] = w.notes.get("incremental_fallbacks", 0.0)
    out["incremental.full_solves"] = w.notes.get("full_solves", 0.0)
    out["incremental.warm_iterations_per_op"] = w.notes.get("warm_iterations", 0.0) / n
    out["journal.fsyncs_per_batch"] = count["journal.fsync"] / n
    if getattr(w, "journal_bytes", None):
        out["journal.bytes_per_batch"] = statistics.fmean(w.journal_bytes)
    out["journal.checkpoint_bytes"] = float(getattr(w, "checkpoint_bytes", 0))
    if w.process_per_op and count["incremental.apply"]:  # replayed records
        out["journal.replay_apply_ms_per_record"] = (
            total_ns["incremental.apply"] / count["incremental.apply"] / 1e6
        )

    covered_ns = sum(self_ns.values())
    if count["serve.http"] and not w.process_per_op:
        # What the client waited for beyond the handler: sockets, the
        # kernel, the server's accept/parse — booked as transport.
        transport = max(0.0, op_ns - total_ns["serve.http"])
        out["serve.transport_ms"] = transport / n / 1e6
        covered_ns += transport
    queries, scans = latency_ms["query"], latency_ms["scan"]
    if queries and scans:
        out["serve.query_p99_ms"] = percentile(queries, 0.99)
        out["serve.scan_p50_ms"] = statistics.median(scans)
        out["serve.http_overhead_ms"] = (
            statistics.median(queries) - out["serve.query_direct_us"] / 1e3
        )
    mutates = latency_ms["insert"] + latency_ms["delete"]
    if mutates:
        out["serve.mutate_p50_ms"] = statistics.median(mutates)
        out["serve.mutate_max_ms"] = max(mutates)
        out["serve.http_overhead_ms"] = out["serve.transport_ms"]
    if getattr(w, "ryw_ms", None):
        out["serve.ryw_read_ms"] = statistics.median(w.ryw_ms)
    hits, misses = w.notes.get("cache_hits", 0.0), w.notes.get("cache_misses", 0.0)
    if hits + misses:
        out["serve.cache_hit_ratio"] = hits / (hits + misses)
    out["serve.refused"] = w.notes.get("refused", 0.0)

    traced_p50_ms = statistics.median(s.latency_s for s in samples) * 1e3
    out["trace.overhead_ratio"] = traced_p50_ms / reference_p50_ms
    out["trace.coverage"] = covered_ns / op_ns if op_ns else 0.0

    out = {name: float(value) for name, value in out.items()}

    by_layer: Dict[str, float] = defaultdict(float)
    for name, ns in self_ns.items():
        by_layer[name.split(".")[0]] += ns
    by_layer["serve"] += out["serve.transport_ms"] * n * 1e6
    shares = {
        layer: ns / op_ns
        for layer, ns in sorted(by_layer.items(), key=lambda kv: -kv[1])
        if ns
    }
    return out, shares


def real_missing(missing: set) -> List[str]:
    """Probe targets that did not resolve, canary aside.  The canary must
    be among them: that is the self-check."""
    if CANARY not in missing:
        raise AssertionError("the canary probe resolved: self-check broken")
    return sorted(missing - {CANARY})
