"""The seven workloads: what one operation is, how its answer is checked.

Each workload builds its inputs from the seed (``gen``), computes the
expected answers itself (``oracle``), starts its program process(es) and
then serves ``op(i)`` calls from the closed loop in ``run.py``.  Op ``i``
is a pure function of ``(seed, i)``.  Checking happens after an op's
clock has stopped.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import time
from typing import Any, Container, Dict, Iterable, List, NamedTuple, Optional, Tuple

import gen
import oracle
from procs import (
    PERF, Client, Host, HostError, Relay, Server, Usage, child_env, repro_argv,
)
from tracing import Span, numeric, read_spans

APSP = os.path.join(PERF, "programs", "apsp.dl")
GRAPH_ANALYTICS = os.path.join(PERF, "programs", "graph_analytics.dl")

#: Input sizes.  ``full`` is what BENCHMARK.json measures; ``smoke`` only
#: proves that every path still runs and checks.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "cold": dict(n=3200, m=9600, alpha=0.6, blocks=32),
        "solve": dict(n=2400, m=7200, alpha=0.6, blocks=16),
        "bags": dict(layers=10, width=5, out_degree=5),
        "serve": dict(n=1280, m=3200, alpha=0.6, blocks=16),
        "recover_batches": 8,
    },
    "smoke": {
        "cold": dict(n=200, m=400, alpha=0.6, blocks=4),
        "solve": dict(n=200, m=400, alpha=0.6, blocks=4),
        "bags": dict(layers=4, width=3, out_degree=2),
        "serve": dict(n=200, m=400, alpha=0.6, blocks=4),
        "recover_batches": 3,
    },
}

Edge = Tuple[str, str]

CHECKPOINT_EVERY = 16
BAG_P = 2  # Trop+_2: bags of the 3 shortest walk lengths
INF_JSON = {"inf": True}


class Sample(NamedTuple):
    latency_s: float
    ok: bool
    kind: str
    window: Tuple[int, int]


class Workload:
    """Base: the run directory, program CPU/RSS accounting, span files."""

    name = ""
    clients = 1  # closed-loop client threads
    process_per_op = False  # does every op pay interpreter start-up + import?

    def __init__(self, seed: int, size: Dict[str, Any], run_dir: str, traced: bool):
        self.seed = seed
        self.size = size
        self.dir = run_dir
        self.traced = traced
        self.rng = random.Random(seed)
        self._cpu_s = 0.0
        self._rss_mb = 0.0
        self._trace_files: List[str] = []
        self.spans: List[List[Span]] = []  # one list per program process
        self.missing: set = set()
        self.notes: Dict[str, float] = {}  # layer counters seen from outside
        self.procs: List[Any] = []  # every long-lived program process started
        os.makedirs(run_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def trace_file(self) -> Optional[str]:
        if not self.traced:
            return None
        path = self.path(f"spans-{len(self._trace_files)}.jsonl")
        self._trace_files.append(path)
        return path

    def account(self, usage: Usage) -> None:
        """Book one ended program process."""
        self._cpu_s += usage.cpu_s
        self._rss_mb = max(self._rss_mb, usage.rss_mb)

    def cpu_s(self) -> float:
        return self._cpu_s

    def peak_rss_mb(self) -> float:
        return self._rss_mb

    def collect_spans(self) -> None:
        for path in self._trace_files:
            if os.path.exists(path):
                spans, missing = read_spans(path)
                self.spans.append(spans)
                self.missing.update(missing)
        self._trace_files = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, client: int) -> Sample:
        raise NotImplementedError

    def final_check(self) -> Optional[bool]:
        """A whole-state check after the loop (``None`` = none)."""
        return None

    def teardown(self) -> None:
        pass

    def kill(self) -> None:
        """Stop whatever program process is still running: set-up, an op
        or the teardown raised.  A no-op after a clean teardown."""
        for proc in self.procs:
            proc.stop(kill=True)


# ---------------------------------------------------------------------------
# run_cold
# ---------------------------------------------------------------------------


class RunCold(Workload):
    """Fresh ``python -m repro run`` per op: spawn → exit, output checked."""

    name = "run_cold"
    process_per_op = True
    program = APSP
    pops, method = "trop", "seminaive"

    def setup(self) -> None:
        _labels, self.edges = gen.block_dag(self.rng, **self.size["cold"])
        self.edb = self.path("edb.json")
        gen.write_edb(self.edb, self.edges)
        self.expected = oracle.apsp(self.edges)
        self.relay = Relay(self.seed)
        self.procs.append(self.relay)
        self.op(0, 0)  # page cache and .pyc files are warm from here on

    def op(self, i: int, client: int) -> Sample:
        trace_out = self.trace_file()
        argv = repro_argv(self.traced) + [
            "run", self.program, "--pops", self.pops, "--edb", self.edb,
            "--method", self.method, "--output", "json",
        ]
        run = self.relay.run(argv, child_env(self.seed, trace_out))
        self.account(Usage(run["cpu_s"], run["rss_mb"]))
        start, end = run["window"]
        ok = run["returncode"] == 0 and self._check(run["stdout"])
        return Sample((end - start) / 1e9, ok, "run", (start, end))

    def _check(self, stdout: bytes) -> bool:
        try:
            instance = json.loads(stdout)["instance"]
        except (ValueError, KeyError):
            return False
        got = {tuple(key): value for key, value in instance.get("T", ())}
        return set(instance) == {"T"} and got == self.expected

    def teardown(self) -> None:
        self.relay.stop()
        self.collect_spans()


# ---------------------------------------------------------------------------
# in-process solves (solver host child)
# ---------------------------------------------------------------------------


class HostWorkload(Workload):
    """Shared by the three in-process rows: a solver host child."""

    program = GRAPH_ANALYTICS
    pops = "trop"
    method = "seminaive"

    def start_host(self) -> None:
        self.edb = self.path("edb.json")
        gen.write_edb(self.edb, self.edges)
        self.host = Host(
            self.seed, program=self.program, edb=self.edb, pops=self.pops,
            method=self.method, trace=self.traced,
        )
        self.procs.append(self.host)
        self.op(0, 0)  # kernels compiled once, allocator warm

    def solve(self, kind: str, expected_of, **args: Any) -> Sample:
        try:
            reply = self.host.call("solve", **args)
        except HostError as exc:  # the solve raised (BudgetExceeded, …):
            reply = exc.reply  # a refused op, timed like any other
        self._cpu_s += reply["cpu_s"]
        if reply["spans"]:
            self.spans.append(reply["spans"])
        start, end = reply["window"]
        ok = "answer" in reply and expected_of(reply["answer"])
        return Sample((end - start) / 1e9, ok, kind, (start, end))

    def peak_rss_mb(self) -> float:
        return self.host.usage().rss_mb

    def teardown(self) -> None:
        self.host.stop()


class SolveFull(HostWorkload):
    """Full semi-naïve fixpoint of four recursive views over ``Trop+``."""

    name = "solve_full"

    def setup(self) -> None:
        _labels, self.edges = gen.block_dag(self.rng, **self.size["solve"])
        self.expected = oracle.graph_views(self.edges)
        self.start_host()

    def op(self, i: int, client: int) -> Sample:
        return self.solve("solve", lambda answer: answer == self.expected)


class SolveBags(HostWorkload):
    """Naïve fixpoint over ``Trop+_2`` on a cyclic ring digraph (Algorithm 1:
    the paper rules semi-naïve out where ⊕ is not idempotent)."""

    name = "solve_bags"
    program = APSP
    pops = f"tropp:{BAG_P}"
    method = "naive"

    def setup(self) -> None:
        _labels, self.edges = gen.layered_ring(self.rng, **self.size["bags"])
        self.expected = {"T": oracle.k_shortest_walks(self.edges, BAG_P + 1)}
        self.start_host()

    def op(self, i: int, client: int) -> Sample:
        return self.solve("solve", lambda answer: answer == self.expected)


class QueryPoint(HostWorkload):
    """Demand-driven ``T(s, ?)`` on the ``solve_full`` graph."""

    name = "query_point"

    def setup(self) -> None:
        _labels, self.edges = gen.block_dag(self.rng, **self.size["solve"])
        self.adj = oracle.adjacency(self.edges)
        self.sources = sorted(self.adj)
        self.rng.shuffle(self.sources)
        self.start_host()

    def op(self, i: int, client: int) -> Sample:
        source = self.sources[i % len(self.sources)]
        expected = {
            (source, node): d
            for node, d in oracle.dijkstra(self.adj, source).items()
        }
        self.notes["demanded_atoms"] = self.notes.get("demanded_atoms", 0) + len(expected)

        def check(answer: Dict[str, Dict[tuple, float]]) -> bool:
            row = {k: v for k, v in answer.get("T", {}).items() if k[0] == source}
            return row == expected

        return self.solve("query", check, query=["T", [source, None]])


# ---------------------------------------------------------------------------
# served workloads
# ---------------------------------------------------------------------------


def _encode(distance: float) -> Any:
    return INF_JSON if math.isinf(distance) else distance


class ServeWorkload(Workload):
    """Shared by the three served rows: the service graph and its oracle."""

    program = APSP
    pops, method = "trop", "seminaive"

    def build_graph(self) -> None:
        self.labels, self.edges = gen.block_dag(self.rng, **self.size["serve"])
        self.block = len(self.labels) // self.size["serve"]["blocks"]
        self.edb = self.path("edb.json")
        gen.write_edb(self.edb, self.edges)
        self.adj = oracle.adjacency(self.edges)

    def rank_footprints(self) -> None:
        """Which edges the mutation script may touch.

        Changing edge ``(u, v)`` can touch every ``T(x, y)`` with ``x``
        at or above ``u`` and ``y`` at or below ``v``: a footprint of
        ``(|anc u| + 1) · (|desc v| + 1)`` atoms, heavy-tailed on a
        power-law graph (one hub edge costs as much as fifty ordinary
        ones).  The script draws from the middle half by footprint, so
        the op being timed is the same kind of work on every seed; the
        tail shows in ``serve.mutate_max_ms``, not in the medians.
        """
        self.below = {s: len(oracle.dijkstra(self.adj, s)) + 1 for s in self.labels}
        self.above = dict.fromkeys(self.labels, 1)
        for s in self.adj:
            for node in oracle.dijkstra(self.adj, s):
                self.above[node] += 1
        ranked = sorted(self.edges, key=lambda e: (self.footprint(e), e))
        self.typical = ranked[len(ranked) // 4: 3 * len(ranked) // 4]
        self.band = (self.footprint(self.typical[0]), self.footprint(self.typical[-1]))

    def footprint(self, edge: Tuple[str, str]) -> int:
        return self.above[edge[0]] * self.below[edge[1]]

    def boot(self, data_dir: str, edb: Optional[str], checkpoint_every: int) -> Server:
        server = Server(
            self.program, data_dir, self.seed, edb=edb,
            checkpoint_every=checkpoint_every, trace_out=self.trace_file(),
        )
        self.procs.append(server)
        return server

    def refused(self, status: int) -> bool:
        """Count a 408/503/… reply; returns whether the reply was one."""
        if status != 200:
            self.notes["refused"] = self.notes.get("refused", 0) + 1
        return status != 200

    def counters(self, conn: Client) -> Dict[str, float]:
        """The service's own numeric counters (``GET /stats``)."""
        status, stats = conn.get("/stats")
        return numeric(stats) if status == 200 else {}

    def note_counters(self, conn: Client) -> None:
        """What the counters moved by since the end of set-up."""
        for key, value in self.counters(conn).items():
            self.notes[key] = value - self.counters_at_setup.get(key, 0)

    def stop_server(self, server: Server) -> Usage:
        """SIGKILL, except that a traced server gets SIGINT so that it can
        write its spans."""
        usage = server.stop(kill=not self.traced)
        self.collect_spans()
        return usage

    # -- the mutation script (serve_write, recover) ------------------------
    def mutation_pair(
        self, j: int, avoid: Container[Edge] = ()
    ) -> Tuple[str, List[dict], List[dict]]:
        """Pair ``j``: a batch and the batch that undoes it.

        Kinds cycle delete-then-reinsert · insert-new-then-delete ·
        lower-a-weight-then-restore; every fourth pair works on 8 edges at
        once.  Edges are drawn from the graph as generated, which is also
        the graph a pair meets when every pair before it was undone
        (``serve_write``): pair ``j`` then depends on ``(seed, j)`` only.
        A script that leaves pairs applied (``recover``) names the edges
        they touched in ``avoid``, and the draw skips them.
        """
        rng = random.Random(self.seed * 1_000_003 + j)
        kind = ("delete", "insert", "lower")[j % 3]
        width = 8 if j % 4 == 3 else 1
        do, undo = [], []
        if kind == "insert":
            fresh: List[Tuple[str, str]] = []
            while len(fresh) < width:
                base = rng.randrange(len(self.labels) // self.block) * self.block
                lo, hi = sorted(rng.sample(range(self.block), 2))
                edge = (self.labels[base + lo], self.labels[base + hi])
                if (
                    edge not in self.edges and edge not in fresh
                    and edge not in avoid
                    and self.band[0] <= self.footprint(edge) <= self.band[1]
                ):
                    fresh.append(edge)
            for edge in fresh:
                do.append(_mutation("insert", edge, float(rng.randint(1, 9))))
                undo.append(_mutation("delete", edge))
            return kind, do, undo
        pool = [
            e for e in self.typical
            if e not in avoid and (kind == "delete" or self.edges[e] >= 2.0)
        ]
        for edge in rng.sample(pool, width):
            weight = self.edges[edge]
            if kind == "delete":
                do.append(_mutation("delete", edge))
            else:
                do.append(_mutation("insert", edge, float(int(weight) // 2)))
            undo.append(_mutation("insert", edge, weight))
        return kind, do, undo

    def track(self, batch: List[dict]) -> None:
        """Keep the benchmark's own EDB copy in step with an acked batch."""
        for m in batch:
            a, b = m["key"]
            if m["op"] == "delete":
                del self.adj[a][b]
            else:
                self.adj.setdefault(a, {})[b] = m["value"]

    def check_batch(self, kind: str, do: List[dict]) -> None:
        """The ``do`` half of a pair must mean what its kind says on the
        EDB as it stands: delete and lower act on edges that are there,
        at the weight the script read; insert adds edges that are not."""
        for m in do:
            a, b = m["key"]
            now = self.adj.get(a, {}).get(b)
            want = None if kind == "insert" else self.edges[(a, b)]
            if now != want:
                raise AssertionError(
                    f"seed {self.seed}: {kind} of E({a},{b}) expects {want}, EDB has {now}"
                )

    def expected_value(self, a: str, b: str) -> Any:
        return _encode(oracle.dijkstra(self.adj, a).get(b, math.inf))


def _mutation(op: str, edge: Tuple[str, str], value: Optional[float] = None) -> dict:
    out = {"op": op, "relation": "E", "key": list(edge)}
    if value is not None:
        out["value"] = value
    return out


def _query_path(a: str, b: str) -> str:
    return f"/query?relation=T&key={a},{b}"


class LongLived(ServeWorkload):
    """One server for the whole loop: its CPU and RSS are read live."""

    def cpu_s(self) -> float:
        return self.server.usage().cpu_s

    def peak_rss_mb(self) -> float:
        return self.server.usage().rss_mb

    def teardown(self) -> None:
        self.note_counters(self.conns[0])
        for conn in self.conns:
            conn.close()
        self.stop_server(self.server)


class ServeRead(LongLived):
    """Keep-alive GETs against a static fixpoint: 80 % point, 20 % scan."""

    name = "serve_read"
    clients = 2
    SCRIPT = 4096

    def setup(self) -> None:
        self.build_graph()
        rows = {s: oracle.dijkstra(self.adj, s) for s in self.adj}
        sources = sorted(rows)
        self.rng.shuffle(sources)
        # Popular sources repeat (the memo cache holds 4096 answers), the
        # tail does not: both the hit and the miss path are exercised.
        weights = [(rank + 1) ** -1.0 for rank in range(len(sources))]
        self.script: List[Tuple[str, str, Any]] = []
        for _ in range(self.SCRIPT):
            s = self.rng.choices(sources, weights)[0]
            if self.rng.random() < 0.8:
                if self.rng.random() < 0.75:
                    t = self.rng.choice(sorted(rows[s]))
                else:
                    t = self.rng.choice(self.labels)
                want = _encode(rows[s].get(t, math.inf))
                self.script.append(("query", _query_path(s, t), want))
            else:
                want = {(s, t): d for t, d in rows[s].items()}
                self.script.append(
                    ("scan", f"/scan?relation=T&pattern={s},_", want)
                )
        self.server = self.boot(self.path("data"), self.edb, CHECKPOINT_EVERY)
        self.conns = [self.server.client() for _ in range(self.clients)]
        for client in range(self.clients):
            self.op(client, client)
        self.counters_at_setup = self.counters(self.conns[0])

    def op(self, i: int, client: int) -> Sample:
        kind, path, want = self.script[i % len(self.script)]
        start = time.monotonic_ns()
        try:
            status, reply = self.conns[client].get(path)
        except (OSError, ValueError):
            status, reply = 599, {}
        end = time.monotonic_ns()
        if self.refused(status):
            ok = False
        elif kind == "query":
            ok = reply.get("value") == want
        else:
            ok = {tuple(k): v for k, v in reply.get("entries", ())} == want
        return Sample((end - start) / 1e9, ok, kind, (start, end))


class ServeWrite(LongLived):
    """``POST /mutate`` → ack, each followed by an untimed checked read."""

    name = "serve_write"

    def setup(self) -> None:
        self.build_graph()
        self.rank_footprints()
        self.data_dir = self.path("data")
        self.server = self.boot(self.data_dir, self.edb, CHECKPOINT_EVERY)
        self.conn = self.server.client()
        self.conns = [self.conn]
        self.seq = self.server.boot_seq
        self.checkpoint_bytes = 0
        self.ryw_ms: List[float] = []
        self.replies: List[Tuple[str, dict]] = []
        self.journal_bytes: List[int] = []
        # Warm both maintenance paths (insert → continuation, delete →
        # DRed) with a pair from far outside the measured script.
        for i in (2_000_000, 2_000_001):
            self.op(i, 0)
        for seen in (self.ryw_ms, self.replies, self.journal_bytes):
            seen.clear()
        self.counters_at_setup = self.counters(self.conn)

    def _disk(self) -> Tuple[int, int]:
        """(largest file, the rest) of the data dir: checkpoint, journal."""
        sizes = sorted(
            os.path.getsize(os.path.join(self.data_dir, f))
            for f in os.listdir(self.data_dir)
        )
        return (sizes[-1], sum(sizes[:-1])) if sizes else (0, 0)

    def op(self, i: int, client: int) -> Sample:
        _kind, do, undo = self.mutation_pair(i // 2)
        batch = do if i % 2 == 0 else undo
        op_kind = batch[0]["op"]  # what the maintenance engine sees
        before = self._disk()[1] if self.traced else 0
        start = time.monotonic_ns()
        try:
            status, reply = self.conn.request("POST", "/mutate", {"mutations": batch})
        except (OSError, ValueError):
            status, reply = 599, {}
        end = time.monotonic_ns()
        ok = not self.refused(status) and reply.get("seq") == self.seq + 1
        if status == 200:
            self.seq = reply.get("seq", self.seq)
            self.track(batch)
            self.replies.append((op_kind, reply))
            if self.traced:
                checkpoint, journal = self._disk()
                self.checkpoint_bytes = checkpoint
                if journal > before:
                    self.journal_bytes.append(journal - before)
            # Read-your-writes, outside the timed region.
            for m in batch[:1] + batch[1:][-1:]:  # first and last edge
                a, b = m["key"]
                t0 = time.perf_counter()
                status, got = self.conn.get(_query_path(a, b))
                self.ryw_ms.append((time.perf_counter() - t0) * 1e3)
                ok = ok and status == 200 and got.get("value") == self.expected_value(a, b)
        return Sample((end - start) / 1e9, ok, op_kind, (start, end))

    def final_check(self) -> bool:
        """≥ 200 sampled sources of a full ``/scan`` against Dijkstra on
        the tracked EDB."""
        status, reply = self.conn.get("/scan?relation=T")
        if status != 200:
            return False
        rows: Dict[str, Dict[str, Any]] = {}
        for (a, b), value in reply["entries"]:
            rows.setdefault(a, {})[b] = value
        sources = sorted(self.adj)
        sampled = self.rng.sample(sources, min(len(sources), 256))
        return all(
            rows.get(s, {}) == oracle.dijkstra(self.adj, s) for s in sampled
        )

class Recover(ServeWorkload):
    """Restart on a crashed data dir: spawn → healthy at the last acked
    seq → one checked read."""

    name = "recover"
    process_per_op = True

    def crash_script(self) -> List[Tuple[str, List[dict]]]:
        """The batches acked before the crash: the ``do`` halves of the
        first pairs, never undone — so each is drawn clear of the edges
        the ones before it touched."""
        script: List[Tuple[str, List[dict]]] = []
        touched: set = set()
        for j in range(self.size["recover_batches"]):
            kind, do, _undo = self.mutation_pair(j, avoid=touched)
            touched.update(tuple(m["key"]) for m in do)
            script.append((kind, do))
        return script

    def setup(self) -> None:
        self.build_graph()
        self.rank_footprints()
        self.crashed = self.path("crashed")
        # checkpoint_every is far above the batch count, so every acked
        # batch is still journal-only when the process is killed.
        server = Server(
            self.program, self.crashed, self.seed, edb=self.edb,
            checkpoint_every=10_000,
        )
        self.procs.append(server)
        conn = server.client()
        self.pairs: List[Edge] = []
        self.acked = server.boot_seq
        for kind, do in self.crash_script():
            self.check_batch(kind, do)
            status, reply = conn.request("POST", "/mutate", {"mutations": do})
            if status != 200:
                raise RuntimeError(f"set-up mutation refused: {reply}")
            self.acked = reply["seq"]
            self.track(do)
            self.pairs.extend(tuple(m["key"]) for m in do)
        conn.close()
        server.stop(kill=True)  # the crash: SIGKILL right after the last ack
        self.expected = {
            (a, b): self.expected_value(a, b) for a, b in self.pairs
        }
        self.copies = 0

    def op(self, i: int, client: int) -> Sample:
        self.copies += 1
        data_dir = self.path(f"copy-{self.copies}")
        shutil.copytree(self.crashed, data_dir)  # untimed
        a, b = self.pairs[i % len(self.pairs)]
        ok = False
        server = None
        start = time.monotonic_ns()
        try:
            server = self.boot(data_dir, None, CHECKPOINT_EVERY)
            conn = server.client()
            status, health = conn.get("/health")
            if not self.refused(status) and health.get("seq") == self.acked:
                status, got = conn.get(_query_path(a, b))
                ok = not self.refused(status) and got.get("value") == self.expected[(a, b)]
            conn.close()
        except (OSError, ValueError, RuntimeError):
            ok = False
        end = time.monotonic_ns()
        if server is not None:
            self.account(self.stop_server(server))
            self.procs.remove(server)
        shutil.rmtree(data_dir, ignore_errors=True)
        return Sample((end - start) / 1e9, ok, "recover", (start, end))


def check_scripts(seeds: Iterable[int], size: Dict[str, Any], scratch: str) -> None:
    """Dry run without the program: on every seed, the first 64 pairs of
    ``serve_write`` (each undone before the next) and ``recover``'s crash
    script (never undone) are valid mutations of the EDB they meet.
    Raises ``AssertionError`` on the first that is not."""
    for seed in seeds:
        w = Recover(seed, size, scratch, False)  # same graph as serve_write
        w.build_graph()
        w.rank_footprints()
        generated = {a: dict(row) for a, row in w.adj.items()}
        for j in range(64):
            kind, do, undo = w.mutation_pair(j)
            w.check_batch(kind, do)
            w.track(do)
            w.track(undo)
        if {a: row for a, row in w.adj.items() if row} != generated:
            raise AssertionError(f"seed {seed}: a pair did not undo itself")
        for kind, do in w.crash_script():
            w.check_batch(kind, do)
            w.track(do)


WORKLOADS = {
    cls.name: cls
    for cls in (RunCold, SolveFull, SolveBags, QueryPoint, ServeRead, ServeWrite, Recover)
}
