"""Solver host: runs in-process ``repro.core.solve`` calls in a process of
their own, so CPU and peak RSS are the program's and not the harness's.

Protocol (spoken by ``procs.Host``): one JSON request per line on stdin,
until end of input; each reply is ``<length>\\n`` followed by that many
bytes of pickle.
Timing wraps the ``solve`` call only; shipping the answer to the parent
for checking happens after the clock has stopped.
"""

from __future__ import annotations

import gc
import json
import pickle
import sys
import time
import timeit
from typing import Any, Dict, Optional

from repro import core, semirings
from repro.core import Database, DatalogService, parse_program

from tracing import Tracer, numeric


def _pops(spec: str):
    if spec == "trop":
        return semirings.TROP
    family, _, arg = spec.partition(":")
    if family == "tropp":
        return semirings.TropicalPSemiring(int(arg))
    raise ValueError(f"unknown value space {spec!r}")


class State:
    def __init__(self, program: str, edb: str, pops: str, method: str, trace: bool):
        self.pops = _pops(pops)
        with open(program) as handle:
            self.program = parse_program(handle.read())
        with open(edb) as handle:
            doc = json.load(handle)
        lift = getattr(self.pops, "singleton", lambda w: w)
        self.database = Database(
            pops=self.pops,
            relations={
                rel: {tuple(key): lift(value) for key, value in entries}
                for rel, entries in doc["relations"].items()
            },
        )
        self.method = method
        self.tracer: Optional[Tracer] = None
        if trace:
            self.tracer = Tracer()
            self.tracer.install()

    def solve(
        self,
        query: Optional[list] = None,
        engine: str = "auto",
        workers: int = 1,
        method: Optional[str] = None,
    ) -> Dict[str, Any]:
        if query is not None:
            query = (query[0], tuple(query[1]))
        gc.collect()
        start_ns = time.monotonic_ns()
        cpu = time.process_time()
        try:
            # Looked up at call time: the tracer re-binds ``repro.core.solve``.
            result = core.solve(
                self.program, self.database, method=method or self.method,
                engine=engine, engine_workers=workers, query=query,
            )
            error = None
        except Exception as exc:  # noqa: BLE001 — BudgetExceeded and friends: a refused op
            error = repr(exc)
        cpu_s = time.process_time() - cpu
        end_ns = time.monotonic_ns()
        reply = {
            "window": (start_ns, end_ns),
            "cpu_s": cpu_s,
            "spans": self.tracer.drain() if self.tracer else [],
        }
        if error is not None:
            return dict(reply, error=error)  # timed like any other op
        instance = result.instance
        reply["answer"] = {
            rel: dict(instance.support(rel)) for rel in instance.relations()
        }
        reply["stats"] = numeric(result.stats)
        return reply

    def microbench(self) -> Dict[str, Any]:
        """ns per ``pops.add`` / ``pops.mul`` on values from the EDB."""
        values = [
            v for rel in self.database.relations.values() for v in rel.values()
        ][:64]
        pairs = list(zip(values, reversed(values)))
        out = {}
        for op in ("add", "mul"):
            fn = getattr(self.pops, op)
            loops = 200
            best = min(
                timeit.repeat(
                    lambda: [fn(a, b) for a, b in pairs], number=loops, repeat=5
                )
            )
            empty = min(
                timeit.repeat(
                    lambda: [None for a, b in pairs], number=loops, repeat=5
                )
            )
            out[op + "_ns"] = max(0.0, best - empty) / (loops * len(pairs)) * 1e9
        return out

    def direct(self, data_dir: str, queries: list, scans: list) -> Dict[str, Any]:
        """The same reads as ``serve_read``, without HTTP: direct calls on
        an in-process ``DatalogService`` over the same state."""
        out: Dict[str, Any] = {}
        with DatalogService(
            self.program, self.pops, data_dir, database=self.database
        ) as service:
            for name, call, keys in (
                ("query_us", service.query, queries),
                ("scan_us", service.scan, scans),
            ):
                samples = []
                for key in keys:
                    start = time.perf_counter_ns()
                    call("T", tuple(key))
                    samples.append((time.perf_counter_ns() - start) / 1e3)
                samples.sort()
                out[name] = samples[len(samples) // 2]
        return out


def main() -> int:
    state: Optional[State] = None
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        request = json.loads(line)
        cmd = request.pop("cmd")
        try:
            if cmd == "init":
                state = State(**request)
                reply: Dict[str, Any] = {
                    "missing": state.tracer.missing if state.tracer else []
                }
            else:
                reply = getattr(state, cmd)(**request)
        except Exception as exc:  # noqa: BLE001 — reported to the parent, which fails the op
            reply = {"error": repr(exc)}
        payload = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        out.write(b"%d\n" % len(payload))
        out.write(payload)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
