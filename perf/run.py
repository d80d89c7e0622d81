#!/usr/bin/env python3
"""The repo benchmark: seven end-to-end workloads, checked, with per-layer
attribution from a separate traced pass.  See ``perf/README.md``.

One workload, as the driver calls it (last stdout line is the result)::

    python3 perf/run.py --workload solve_full --seed 1 --seconds 8 --trace 0

All seven, three interleaved passes each, plus the traced pass::

    python3 perf/run.py [--seed N] [--trace] [--smoke] [--out DIR]

Dry-run the ``serve_write``/``recover`` mutation scripts on many seeds::

    python3 perf/run.py --check-scripts 800
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import layers
from procs import PERF, ROOT, SRC
from tracing import span_row
from workloads import SIZES, WORKLOADS, Sample, Workload, check_scripts

#: End-to-end metrics, name → unit.  Bounds live in BENCHMARK.json.
E2E_UNITS = {
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Set-up is repeated and its median reported, so one slow spawn does not
#: decide ``setup_s``.
SETUP_REPEATS = 3
PASSES = 3


def closed_loop(w: Workload, seconds: float) -> List[Sample]:
    """``w.clients`` threads, each sending its next op only when the
    previous one has been answered, until the time box closes."""
    samples: List[Sample] = []
    next_op = itertools.count()
    deadline = time.monotonic() + seconds

    def client(which: int) -> None:
        while True:  # at least one op, however short the box
            samples.append(w.op(next(next_op), which))
            if time.monotonic() >= deadline:
                break

    if w.clients == 1:
        client(0)
        return samples
    threads = [
        threading.Thread(target=client, args=(which,)) for which in range(w.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def measure(w: Workload, seconds: float) -> Dict[str, Any]:
    """One closed loop on a set-up workload → counts and e2e numbers."""
    cpu_before = w.cpu_s()
    samples = closed_loop(w, seconds)
    cpu_s = w.cpu_s() - cpu_before
    rss_mb = w.peak_rss_mb()
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    final = w.final_check()
    if final is not None:
        attempted += 1
        failed += 0 if final else 1
    latencies = [s.latency_s for s in samples]  # never empty, each > 0
    waited_s = sum(latencies) / w.clients
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p95_ms": layers.percentile(latencies, 0.95) * 1e3,
            "ops_per_s": sum(1 for s in samples if s.ok) / waited_s,
            "cpu_ms_per_op": cpu_s * 1e3 / len(samples),
            "peak_rss_mb": rss_mb,
        },
    }


def set_up_and_measure(w: Workload, seconds: Optional[float]) -> Dict[str, Any]:
    """Set-up (timed), closed loop (none when ``seconds`` is ``None``),
    checks, teardown.  Whatever raises on the way, no program process is
    left running."""
    try:
        started = time.perf_counter()
        w.setup()
        setup_s = time.perf_counter() - started
        row = measure(w, seconds) if seconds is not None else {"e2e": {}}
        w.teardown()
    finally:
        w.kill()
    row["e2e"]["setup_s"] = setup_s
    return row


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, size: str, out_dir: str,
    setup_repeats: int = SETUP_REPEATS,
) -> Dict[str, Any]:
    """Set up (several times), measure, check, tear down: one row."""
    cls = WORKLOADS[name]
    run_dir = os.path.join(out_dir, f"run-{os.getpid()}-{name}")
    shutil.rmtree(run_dir, ignore_errors=True)
    result: Dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds}
    try:
        if not traced:
            setups = []
            for repeat in range(setup_repeats):
                w = cls(seed, SIZES[size], os.path.join(run_dir, f"s{repeat}"), False)
                # Only the last set-up is measured on; the others are
                # torn down again at once.
                last = repeat == setup_repeats - 1
                row = set_up_and_measure(w, seconds if last else None)
                setups.append(row["e2e"]["setup_s"])
            row["e2e"]["setup_s"] = statistics.median(setups)
        else:
            # Tracing must not touch the e2e numbers: a short untraced
            # loop gives the reference, the traced loop the spans.
            ref = cls(seed, SIZES[size], os.path.join(run_dir, "ref"), False)
            reference = set_up_and_measure(ref, seconds / 3)
            w = cls(seed, SIZES[size], os.path.join(run_dir, "traced"), True)
            row = set_up_and_measure(w, seconds * 2 / 3)
            row["attempted"] += reference["attempted"]
            row["failed"] += reference["failed"]
            row["e2e"] = reference["e2e"]  # untraced
            extras, missing = layers.ablate(w, run_dir, 1 if size == "smoke" else 3)
            extras["process.cpu_ms_per_op"] = row["e2e"]["cpu_ms_per_op"]
            extras["process.op_p95_ms"] = row["e2e"]["op_p95_ms"]
            if cls.process_per_op:
                extras["import.numpy_ms"] = layers.numpy_import_ms(seed)
            row["layers"], row["layer_share"] = layers.compute(
                w, row["samples"], row["e2e"]["op_p50_ms"], extras
            )
            row["layers_missing"] = layers.real_missing(missing | w.missing)
            write_trace(os.path.join(out_dir, f"trace-{name}.jsonl"), w, row["samples"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    samples = row.pop("samples")
    result.update(row)
    result["sample_count"] = len(samples)
    result["fail_ratio"] = result["failed"] / result["attempted"]
    return result


def write_trace(path: str, w: Workload, samples: List[Sample]) -> None:
    """``trace-<workload>.jsonl``: one op row per operation window, then
    every span of every program process (see README, *Reading a trace*)."""
    with open(path, "w") as handle:
        for op_id, s in enumerate(samples):
            handle.write(json.dumps({
                "op": op_id, "kind": s.kind, "ok": s.ok,
                "start_ns": s.window[0], "end_ns": s.window[1],
            }) + "\n")
        for process, spans in enumerate(w.spans):
            handle.writelines(span_row(span, process=process) for span in spans)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report(result: Dict[str, Any]) -> None:
    """Every metric by name, with its unit and the sample count."""
    name = result["workload"]
    print(
        f"== {name}  seed={result['seed']}  box={result['seconds']:g}s  "
        f"samples={result['sample_count']}  attempted={result['attempted']}  "
        f"failed={result['failed']}"
    )
    for metric, value in result["e2e"].items():
        print(f"  {name}.{metric} = {value:.4f} {E2E_UNITS[metric]}")
    print(f"  {name}.fail_ratio = {result['fail_ratio']:.4f} ratio")
    if "layers" in result:
        for metric, value in result["layers"].items():
            print(f"  {name}:{metric} = {value:.4f} {layers.UNITS[metric]}")
        shares = "  ".join(
            f"{layer}={share:.1%}" for layer, share in result["layer_share"].items()
        )
        print(f"  {name}: share of traced op time: {shares}")
        if result["layers_missing"]:
            print(f"  {name}: layers_missing = {result['layers_missing']}")


def driver_line(result: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """The one-object last line the benchmark contract asks for: exactly
    the metrics BENCHMARK.json lists, per-layer ones on a traced run."""
    kind, values = (
        ("per_layer", result["layers"]) if "layers" in result
        else ("end_to_end", result["e2e"])
    )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in contract[kind]
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def cpu_jiffies() -> Tuple[int, int]:
    """(stolen, total) CPU time of the whole box so far, from /proc/stat:
    what the hypervisor took away from this VM is the one host-noise
    source that can be read directly."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment(seed: int) -> Dict[str, Any]:
    """What a reader needs to judge whether two result files compare."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": nproc,
        "numpy": has_numpy,
        "seed": seed,
        "load_1m_start": load,
        "noisy": load > 0.5 * nproc,
        "flush_policy": "the program's: journal fsync per batch",
    }


# ---------------------------------------------------------------------------
# the whole suite
# ---------------------------------------------------------------------------


def run_suite(args: argparse.Namespace, box_s: float) -> int:
    """``PASSES`` untraced passes per workload, interleaved round-robin so
    a noisy minute on a shared box hits every row alike; a metric's value
    is the median of its passes.  ``--trace`` adds one traced pass per
    workload; ``--smoke`` is that traced pass alone, at tiny sizes."""
    size = "smoke" if args.smoke else "full"
    env = environment(args.seed)
    stolen_0, total_0 = cpu_jiffies()
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    for _ in range(0 if args.smoke else PASSES):
        for name in WORKLOADS:
            # One set-up per pass: ``setup_s`` is the median over passes.
            passes[name].append(
                run_workload(name, args.seed, box_s, False, size, args.out, 1)
            )
    if args.trace or args.smoke:
        for name in WORKLOADS:
            passes[name].append(
                run_workload(name, args.seed, box_s, True, size, args.out)
            )
    rows: Dict[str, Any] = {}
    for name, runs in passes.items():
        untraced = [r for r in runs if "layers" not in r] or runs
        row = {
            "duration_s": sum(r["seconds"] for r in untraced),
            "sample_count": sum(r["sample_count"] for r in untraced),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "e2e": {
                metric: statistics.median(r["e2e"][metric] for r in untraced)
                for metric in E2E_UNITS
            },
            "passes": [r["e2e"] for r in untraced],
        }
        row["fail_ratio"] = row["failed"] / row["attempted"]
        for key in ("layers", "layer_share", "layers_missing"):
            if key in runs[-1]:
                row[key] = runs[-1][key]
        rows[name] = row
        report({"workload": name, "seed": args.seed, "seconds": row["duration_s"], **row})
    env["load_1m_end"] = os.getloadavg()[0]
    stolen, total = cpu_jiffies()
    env["steal_share"] = (stolen - stolen_0) / max(1, total - total_0)
    env["noisy"] = env["noisy"] or env["steal_share"] > 0.05
    document = {"schema": "perf-results/1", "environment": env, "workloads": rows}
    if args.smoke:
        check_schema(document)
    path = os.path.join(args.out, "results.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"results written to {os.path.relpath(path)}")
    if env["noisy"]:
        print(
            f"warning: run marked noisy (load at start {env['load_1m_start']:.2f} "
            f"on {env['nproc']} cpus, {env['steal_share']:.1%} of CPU time stolen)"
        )
    return 1 if any(row["failed"] for row in rows.values()) else 0


def check_schema(document: Dict[str, Any]) -> None:
    """``--smoke``: the results file has every workload, every e2e metric
    as a positive number and every per-layer metric as a number."""
    for name in WORKLOADS:
        row = document["workloads"][name]
        for metric in E2E_UNITS:
            value = row["e2e"][metric]
            if not isinstance(value, float) or not value > 0:
                raise AssertionError(f"{name}.{metric} = {value!r}")
        if set(row["layers"]) != set(layers.UNITS):
            raise AssertionError(f"{name}: per-layer metrics differ from UNITS")
        for metric, value in row["layers"].items():
            if not isinstance(value, float):
                raise AssertionError(f"{name}:{metric} = {value!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-scripts", type=int, metavar="N", default=0,
                        help="dry-run the mutation scripts on seeds 1..N and exit")
    parser.add_argument("--out", default=os.path.join(PERF, "out"))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    os.makedirs(args.out, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.smoke:
        seconds = 0.45
    if args.check_scripts or args.smoke:
        # The mutation scripts are frozen with this directory: a seed on
        # which one is invalid could never be repaired later.
        seeds = range(1, 1 + (args.check_scripts or 100))
        scratch = os.path.join(args.out, f"scripts-{os.getpid()}")
        try:
            check_scripts(seeds, SIZES["smoke" if args.smoke else "full"], scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(f"mutation scripts valid on seeds {seeds[0]}..{seeds[-1]}")
        if args.check_scripts:
            return 0
    if args.workload is None:
        return run_suite(args, seconds)
    result = run_workload(
        args.workload, args.seed, seconds, bool(args.trace),
        "smoke" if args.smoke else "full", args.out,
    )
    report(result)
    print(driver_line(result, contract))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
