"""Replay ``serve_write``'s mutation script in-process, with a per-batch breakdown.

The repo benchmark's ``serve_write`` row POSTs a script of mutation
batches to a served APSP fixpoint.  This tool rebuilds the same graph and
script (``perf/workloads.py``: ``ServeWorkload.build_graph``,
``rank_footprints``, ``mutation_pair``) and applies it through a
:class:`~repro.core.journal.DurableInstance` in this process, without
HTTP, so the maintenance layer's own time can be read batch by batch:

* ``apply_ms`` — one ``DurableInstance.apply`` (journal append and fsync,
  maintenance, the benchmark's checkpoint every ``CHECKPOINT_EVERY``
  batches);
* ``domain_ms`` — time inside ``Database.active_domain`` and
  ``Database.enumeration_domain`` (a walk of the replaced stores);
* ``full_compares`` — whole-fixpoint comparisons of the changed-relation
  test (``IncrementalInstance._changed_idbs`` without touched keys);
* ``kernels`` — codegen kernels generated (source written and compiled);
* ``copies`` — ``Instance.copy`` calls;
* ``gc_ms`` — cyclic-collector time from the batch's start to the next
  batch's (``apply`` pauses the collector, so a batch's collections run
  after it).

Run it against any checkout (``--src``, default: this one) to compare two
trees on one host::

    python tools/replay_writes.py --seed 1
    python tools/replay_writes.py --src ../parent --seed 1 --per-batch
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Batches replayed after the warm-up pair.
OPS = 480
COLUMNS = ("apply_ms", "domain_ms", "full_compares", "kernels", "copies", "gc_ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=ROOT, help="checkout to replay (holds src/ and perf/)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--per-batch", action="store_true", help="print one line per batch")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.src, "src"), os.path.join(args.src, "perf")]
    from repro.core import codegen
    from repro.core.incremental import IncrementalInstance
    from repro.core.instance import Database, Instance

    counters: Dict[str, float] = defaultdict(float)

    def probe(owner, name: str, label: str, counts: Callable[..., bool] = lambda *a, **k: True):
        real = getattr(owner, name)

        def wrapped(*a, **k):
            if not counts(*a, **k):
                return real(*a, **k)
            started = time.perf_counter()
            try:
                return real(*a, **k)
            finally:
                counters[label + "_ms"] += (time.perf_counter() - started) * 1e3
                counters[label] += 1

        setattr(owner, name, wrapped)

    probe(Database, "active_domain", "domain")
    probe(Database, "enumeration_domain", "domain")
    probe(IncrementalInstance, "_changed_idbs", "full_compares",
          lambda self, before, touched=None: touched is None)
    probe(codegen, "_finalize", "kernels")
    probe(Instance, "copy", "copies")
    gc_started = [0.0]

    def on_gc(phase, _info):
        if phase == "start":
            gc_started[0] = time.perf_counter()
        else:
            counters["gc_ms"] += (time.perf_counter() - gc_started[0]) * 1e3

    with tempfile.TemporaryDirectory(prefix="replay-") as scratch:
        rows = _replay(args, scratch, counters, on_gc)
    applies = sorted(row["apply_ms"] for row in rows)
    print(f"{args.src}: seed {args.seed}, {len(rows)} batches after warm-up")
    print(f"  apply_ms median {statistics.median(applies):.3f}  "
          f"p25 {applies[len(applies) // 4]:.3f}  p75 {applies[3 * len(applies) // 4]:.3f}  "
          f"sum {sum(applies):.0f}")
    for path in sorted({row["path"] for row in rows}):
        mine = [row for row in rows if row["path"] == path]
        print(f"  {path:10s} {len(mine):4d} batches, per batch: " + "  ".join(
            f"{c} {sum(row[c] for row in mine) / len(mine):.3f}" for c in COLUMNS
        ))
    return 0


def _replay(args, scratch: str, counters: Dict[str, float], on_gc) -> List[Dict[str, float]]:
    """Boot the benchmark's graph in ``scratch`` and apply the script."""
    import workloads
    from repro.cli import load_database, resolve_pops
    from repro.core.journal import DurableInstance
    from repro.core.parser import parse_program

    work = workloads.ServeWrite(
        args.seed, workloads.SIZES["full"], os.path.join(scratch, "run"), False
    )
    work.build_graph()
    work.rank_footprints()
    pops = resolve_pops("trop")
    with open(workloads.APSP) as handle:
        program = parse_program(handle.read())
    durable = DurableInstance(
        os.path.join(scratch, "data"), program, pops,
        database=load_database(work.edb, pops),
        checkpoint_every=workloads.CHECKPOINT_EVERY,
    )

    def batch(i: int) -> List[dict]:
        _kind, do, undo = work.mutation_pair(i // 2)
        return do if i % 2 == 0 else undo

    for i in (2_000_000, 2_000_001):  # the benchmark's warm-up pair
        durable.apply(batch(i))
    rows: List[Dict[str, float]] = []
    gc.callbacks.append(on_gc)
    try:
        for i in range(OPS):
            counters.clear()
            started = time.perf_counter()
            summary = durable.apply(batch(i))
            counters["apply_ms"] = (time.perf_counter() - started) * 1e3
            rows.append({"path": summary.path, **{c: counters[c] for c in COLUMNS}})
            if args.per_batch:
                print(f"{i:4d} {summary.path:10s} " + " ".join(
                    f"{c}={counters[c]:.3f}" if c.endswith("_ms") else f"{c}={int(counters[c])}"
                    for c in COLUMNS
                ))
    finally:
        gc.callbacks.remove(on_gc)
        durable.close()
    return rows


if __name__ == "__main__":
    sys.exit(main())
