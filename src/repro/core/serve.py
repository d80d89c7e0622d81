"""``datalogo serve``: a fault-tolerant always-on query service.

The batch engine answers one ``solve()`` and exits; this module turns
the same fixpoint into a long-running service:

* a :class:`DatalogService` keeps a crash-safe warm fixpoint
  (:class:`~repro.core.journal.DurableInstance`) in memory, applies
  mutation batches through the write-ahead journal under a writer
  lock, and answers reads lock-free against the immutable published
  database and instance (the incremental engine swaps both in at the
  end of a batch, so readers never see a half-applied state);
* point queries are O(1) against the fixpoint support; pattern scans
  (``None`` wildcards) probe lazily built value-carrying
  :class:`~repro.core.indexes.KeyIndex` masks, rebuilt only when the
  relation's version counter moves;
* ``GET /query?...&bound=1`` routes through the demand-driven path
  (:mod:`repro.core.demand`): when the relation's answers are already
  materialized in the warm fixpoint the warm read wins (byte-identical
  by the demand theorem), otherwise a magic-rewritten solve runs
  against the journaled EDB — work proportional to the demanded
  answers, not the full fixpoint;
* query results are memoized keyed on the per-relation change
  counters (the version vector the incremental engine bumps per
  mutation) — a mutation that leaves relation ``R`` untouched keeps
  every cached ``R`` read valid;
* every read carries a wall budget: a scan that exceeds it (or a
  request stuck behind a slow pool) degrades to an HTTP-style
  structured error (:class:`ServeError` → ``{"error": …, "status":
  408}``) instead of hanging the client; writes are exempt from the
  pool timeout — a mutation is journaled durably before it is applied,
  so abandoning one mid-flight would report failure for a batch that
  was nonetheless applied;
* the HTTP front end (stdlib ``ThreadingHTTPServer``; zero
  dependencies) answers plain point reads (``GET /query`` without
  ``bound=1``) and ``GET /health`` on the connection thread, and runs
  ``GET /scan``, bound queries, ``GET /stats``, ``POST /mutate`` and
  ``POST /checkpoint`` on a bounded thread pool; each reply is one
  write on a ``TCP_NODELAY`` socket.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs

from ..semirings.base import FunctionRegistry, POPS
from .incremental import Mutation
from .indexes import KeyIndex
from .instance import Database
from .io import encode_value
from .journal import DurableInstance, JournalError
from .rules import Program

#: Entries polled between wall-budget checks during a pattern scan.
_SCAN_POLL_EVERY = 1024


class ServeError(Exception):
    """A structured, HTTP-shaped request failure (never a hang)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code

    def as_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "error": {"code": self.code, "message": str(self)},
        }


class DatalogService:
    """The warm-fixpoint query/mutation service (front-end agnostic).

    One writer at a time (mutations serialize on ``_write_lock``);
    reads never take it — they snapshot the published instance and the
    version vector, which the incremental engine only replaces
    atomically.
    """

    def __init__(
        self,
        program: Program,
        pops: POPS,
        data_dir: str,
        database: Optional[Database] = None,
        functions: Optional[FunctionRegistry] = None,
        checkpoint_every: int = 64,
        query_wall_s: float = 2.0,
        cache_size: int = 4096,
        pool_workers: int = 4,
        plan: str = "indexed",
        engine: str = "auto",
        dred_cap: Optional[int] = None,
    ):
        self.durable = DurableInstance(
            data_dir,
            program,
            pops,
            database=database,
            functions=functions,
            checkpoint_every=checkpoint_every,
            plan=plan,
            engine=engine,
            dred_cap=dred_cap,
        )
        self.program = program
        self.pops = pops
        self.query_wall_s = query_wall_s
        self.cache_size = cache_size
        self._write_lock = threading.Lock()
        #: (relation, key) → (version, value): the memo the version
        #: vector invalidates.
        self._cache: "OrderedDict[Tuple[str, Tuple], Tuple[int, Any]]" = (
            OrderedDict()
        )
        self._cache_lock = threading.Lock()
        #: Guards the demand-path counters, which concurrent
        #: ``query_bound`` calls bump.
        self._demand_lock = threading.Lock()
        #: (relation, mask) → (version, KeyIndex): lazily built
        #: value-carrying scan indexes, rebuilt per relation version.
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Tuple[int, KeyIndex]] = {}
        self._index_lock = threading.Lock()
        self.pool = ThreadPoolExecutor(
            max_workers=pool_workers, thread_name_prefix="datalogo-serve"
        )
        self.stats: Dict[str, int] = {
            "queries": 0,
            "scans": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "mutation_batches": 0,
            "query_timeouts": 0,
            "request_errors": 0,
            "demand_queries": 0,
            "demand_queries_warm": 0,
            "demand_prepared_hits": 0,
            "demand_prepared_misses": 0,
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _version(self, relation: str) -> int:
        return self.durable.versions.get(relation, 0)

    def query(self, relation: str, key: Sequence[Any]) -> Any:
        """Point lookup with version-vector memoization."""
        self._check_relation(relation)
        key = tuple(key)
        self.stats["queries"] += 1
        version = self._version(relation)
        cache_key = (relation, key)
        with self._cache_lock:
            hit = self._cache.get(cache_key)
            if hit is not None and hit[0] == version:
                self._cache.move_to_end(cache_key)
                self.stats["cache_hits"] += 1
                return hit[1]
        self.stats["cache_misses"] += 1
        value = self.durable.query(relation, key)
        with self._cache_lock:
            self._cache[cache_key] = (version, value)
            self._cache.move_to_end(cache_key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return value

    def query_bound(self, relation: str, key: Sequence[Any]) -> Any:
        """Demand-driven point lookup (``bound=1`` on ``GET /query``).

        When the relation's answers are already materialized in the
        warm fixpoint (or it is an EDB), the warm read wins — the
        demand theorem makes the two byte-identical, and the warm path
        is O(1).  Otherwise the query runs through the demand rewrite
        (:mod:`repro.core.demand`) against the journaled EDB, so the
        work done is proportional to the demanded answers; programs
        outside the supported fragment fall back to a full solve
        inside :func:`~repro.core.demand.demand_solve`.  The solve runs
        on the database published when it started — immutable, so a
        concurrent mutation can neither change it nor be half-seen.
        Queries of one adornment share a prepared rewrite until the
        next mutation publishes a new database
        (``stats["demand_prepared_hits"]`` / ``["demand_prepared_misses"]``).
        """
        self._check_relation(relation)
        key = tuple(key)
        if self._materialized(relation):
            self.stats["demand_queries_warm"] += 1
            return self.query(relation, key)
        with self._demand_lock:
            self.stats["demand_queries"] += 1
        from .engine import solve

        inc = self.durable.inc
        try:
            result = solve(
                self.program,
                inc.database,
                method="seminaive",
                functions=inc.functions,
                query=(relation, key),
            )
        except ValueError as exc:
            raise ServeError(400, "bad-query", str(exc)) from exc
        if not result.stats["demand_fallbacks"]:
            counter = (
                "demand_prepared_hits"
                if result.stats["demand_prepared_hits"]
                else "demand_prepared_misses"
            )
            with self._demand_lock:
                self.stats[counter] += 1
        return result.instance.get(relation, key)

    def _materialized(self, relation: str) -> bool:
        """Whether the warm state already answers reads of ``relation``
        (an EDB, or an IDB with stored atoms)."""
        inc = self.durable.inc
        return relation not in self.program.idbs or bool(
            relation in inc._idb_names and inc.instance.support(relation)
        )

    def scan(
        self,
        relation: str,
        pattern: Optional[Sequence[Any]] = None,
        wall_s: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[Tuple, Any]]:
        """Pattern scan: ``None`` positions are wildcards.

        Bound positions probe a value-carrying :class:`KeyIndex` mask
        (built lazily, invalidated by the relation's version counter);
        an all-wildcard pattern enumerates the support.  The wall
        budget is polled during enumeration — a scan that blows it
        raises a structured 408 instead of hanging the request thread.
        """
        self._check_relation(relation)
        self.stats["scans"] += 1
        budget = self.query_wall_s if wall_s is None else wall_s
        deadline = time.monotonic() + budget
        # Version BEFORE support (the discipline query() follows): the
        # writer swaps the instance before bumping versions, so reading
        # in this order guarantees the snapshot is at least as new as
        # the version it gets cached under — a concurrent mutation can
        # only tag fresh data with a stale version (rebuilt on the next
        # read), never stale data with a fresh version.
        version = self._version(relation)
        support = self._support(relation)
        if pattern is None or all(v is None for v in pattern):
            entries = list(support.items()) if hasattr(
                support, "items"
            ) else [(k, True) for k in support]
            return self._clip(
                entries, deadline, limit, "scan exceeded its wall budget"
            )
        mask = tuple(
            i for i, v in enumerate(pattern) if v is not None
        )
        values = tuple(pattern[i] for i in mask)
        index = self._scan_index(relation, mask, support, version)
        return self._clip(
            ((entry[0], entry[1]) for entry in index.probe_entries(mask, values)),
            deadline,
            limit,
            f"scan of {relation!r} exceeded its {budget:g}s wall budget",
        )

    def _clip(self, entries, deadline, limit, timeout_message):
        """The first ``limit`` (all, when ``None``) of ``entries``,
        polling the wall ``deadline`` as they are read."""
        out = []
        for n, item in enumerate(entries):
            if n == limit:
                break
            if n % _SCAN_POLL_EVERY == 0 and time.monotonic() > deadline:
                self.stats["query_timeouts"] += 1
                raise ServeError(408, "query-budget", timeout_message)
            out.append(item)
        return out

    def _support(self, relation: str):
        inc = self.durable.inc
        if relation in inc._idb_names:
            return inc.instance.support(relation)
        if inc._is_bool_relation(relation):
            keys = inc.database.bool_relations.get(relation, set())
            return {key: True for key in keys}
        return inc.database.support(relation)

    def _scan_index(self, relation: str, mask, support, version: int) -> KeyIndex:
        # ``version`` was read before ``support`` was snapshotted; an
        # index is only ever cached under the version its data is at
        # least as new as.
        slot = (relation, mask)
        with self._index_lock:
            hit = self._indexes.get(slot)
            if hit is not None and hit[0] == version:
                return hit[1]
            index = KeyIndex(support)
            self._indexes[slot] = (version, index)
            return index

    def _check_relation(self, relation: str) -> None:
        inc = self.durable.inc
        known = (
            relation in inc._idb_names
            or relation in inc.database.relations
            or relation in self.program.edbs
            or inc._is_bool_relation(relation)
        )
        if not known:
            raise ServeError(
                404,
                "unknown-relation",
                f"unknown relation {relation!r} (known: "
                f"{sorted(set(self.program.idbs) | set(self.program.edbs) | set(self.program.bool_edbs))})",
            )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def mutate(self, mutations: Sequence[Any]) -> Dict[str, Any]:
        """Apply one batch through the journal; returns the summary.

        The returned dict carries the batch's journal ``seq`` so a
        client whose request failed ambiguously (connection drop) can
        de-duplicate a retry against ``GET /health``'s sequence number.
        """
        try:
            muts = [
                m if isinstance(m, Mutation) else Mutation.from_dict(m)
                for m in mutations
            ]
        except (KeyError, TypeError, ValueError) as exc:
            self.stats["request_errors"] += 1
            raise ServeError(
                400, "bad-mutation", f"malformed mutation batch: {exc}"
            ) from exc
        try:
            with self._write_lock:
                summary = self.durable.apply(muts)
                seq = self.durable.seq
        except ValueError as exc:
            self.stats["request_errors"] += 1
            raise ServeError(400, "bad-mutation", str(exc)) from exc
        except JournalError as exc:
            self.stats["request_errors"] += 1
            raise ServeError(503, "unhealthy", str(exc)) from exc
        self.stats["mutation_batches"] += 1
        out = summary.as_dict()
        out["seq"] = seq
        return out

    def checkpoint(self) -> Dict[str, Any]:
        try:
            with self._write_lock:
                self.durable.checkpoint()
                seq = self.durable.seq
        except JournalError as exc:
            self.stats["request_errors"] += 1
            raise ServeError(503, "unhealthy", str(exc)) from exc
        return {"seq": seq}

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, Any]:
        """Serve + durability + incremental counters, one flat dict."""
        out = self.durable.stats_snapshot()
        out.update(self.stats)
        out["cached_queries"] = len(self._cache)
        return out

    def close(self) -> None:
        self.pool.shutdown(wait=False)
        self.durable.close()

    def __enter__(self) -> "DatalogService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


def _parse_key(raw: str) -> Tuple:
    """Parse a key/pattern query param: JSON array, else comma-split.

    Comma-split atoms coerce to ``int`` when they look like one (the
    workloads key on strings and ints); ``_`` and empty atoms are
    wildcards (scan patterns).
    """
    raw = raw.strip()
    if raw.startswith("["):
        try:
            parsed = json.loads(raw)
        except ValueError as exc:
            raise ServeError(
                400, "bad-key", f"unparseable key {raw!r}: {exc}"
            ) from exc
        if not isinstance(parsed, list):
            raise ServeError(400, "bad-key", f"key must be a list: {raw!r}")
        if any(isinstance(atom, (list, dict)) for atom in parsed):
            raise ServeError(
                400, "bad-key", f"key atoms must be scalars: {raw!r}"
            )
        return tuple(parsed)
    atoms: List[Any] = []
    for atom in raw.split(","):
        atom = atom.strip()
        if atom in ("", "_", "*"):
            atoms.append(None)
            continue
        try:
            atoms.append(int(atom))
        except ValueError:
            atoms.append(atom)
    return tuple(atoms)


def _parse_limit(raw: Optional[str]) -> Optional[int]:
    if raw is None:
        return None
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ServeError(
            400, "bad-request", f"limit must be a non-negative integer: {raw!r}"
        )
    return limit


class _ServeHandler(BaseHTTPRequestHandler):
    """Answers point reads on the connection thread and routes every
    other request onto the service's bounded thread pool."""

    service: DatalogService = None  # set by make_server
    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted connection: a reply larger than
    #: one segment never waits on the client's delayed ACK.
    disable_nagle_algorithm = True

    # Silence the default stderr-per-request log line.
    def log_message(self, *args) -> None:  # noqa: D102
        pass

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        """Send the status line, headers and body in one write.

        Separate header and body writes meet Nagle's algorithm and the
        client's delayed ACK: the body waits ≈ 40 ms for the ACK of the
        headers.
        """
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (
            f"{self.protocol_version} {status} "
            f"{self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n{close}\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def _respond(self, route) -> None:
        """Reply with what ``route()`` returns, behind the error barrier.

        Parameter parsing runs inside ``route`` too, so a malformed
        request gets a structured 4xx on a connection that stays up.
        """
        try:
            payload = route()
        except ServeError as exc:
            self._reply(exc.status, exc.as_dict())
        except Exception as exc:  # noqa: BLE001 — fault barrier
            self.service.stats["request_errors"] += 1
            self._reply(
                500, ServeError(500, "internal", repr(exc)).as_dict()
            )
        else:
            self._reply(200, payload)

    def _pooled(self, fn, is_write: bool = False) -> Any:
        """Run ``fn`` on the service's pool under the wall budget.

        Reads are abandoned when the pool budget expires (a 503 beats a
        hang).  Writes are exempt: ``future.cancel()`` cannot stop a
        running task, so timing out a mutation would tell the client
        "overloaded" while the batch is nonetheless durably journaled
        and applied — instead the handler waits for the write to finish
        and reports what actually happened (the mutation itself is
        bounded by the journal layer's re-derivation budgets).
        """
        service = self.service
        future = service.pool.submit(fn)
        try:
            # Pool-queue wait counts against the budget too: a request
            # stuck behind slow scans times out instead of hanging.
            return future.result(
                timeout=None if is_write else service.query_wall_s * 4 + 1.0
            )
        except FutureTimeout:
            future.cancel()
            service.stats["query_timeouts"] += 1
            raise ServeError(
                503, "overloaded", "request timed out in the pool"
            ) from None

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path, _, query = self.path.partition("?")
        if path == "/health":
            healthy = self.service.durable.healthy
            self._reply(
                200 if healthy else 503,
                {
                    "status": "ok" if healthy else "unhealthy",
                    "seq": self.service.durable.seq,
                },
            )
            return
        self._respond(lambda: self._route_get(path, query))

    def _route_get(self, path: str, query: str) -> Dict[str, Any]:
        service = self.service
        params = {k: v[-1] for k, v in parse_qs(query).items()}
        if path == "/stats":
            return self._pooled(service.stats_snapshot)
        if path == "/query":
            relation = params.get("relation")
            raw_key = params.get("key")
            if not relation or raw_key is None:
                raise ServeError(
                    400, "bad-request", "need relation= and key= params"
                )
            key = _parse_key(raw_key)
            if params.get("bound", "").lower() in ("1", "true", "yes"):
                value = self._pooled(lambda: service.query_bound(relation, key))
            else:
                # An O(1) memo/dict read: cheaper here than the pool hop.
                value = service.query(relation, key)
            return {
                "relation": relation,
                "key": list(key),
                "value": encode_value(value),
            }
        if path == "/scan":
            relation = params.get("relation")
            if not relation:
                raise ServeError(400, "bad-request", "need a relation= param")
            pattern = (
                _parse_key(params["pattern"]) if "pattern" in params else None
            )
            limit = _parse_limit(params.get("limit"))

            def run_scan():
                entries = service.scan(relation, pattern=pattern, limit=limit)
                return {
                    "relation": relation,
                    "entries": [
                        [list(key), encode_value(value)]
                        for key, value in entries
                    ],
                }

            return self._pooled(run_scan)
        raise ServeError(404, "no-route", f"no route {path!r}")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._respond(self._route_post)

    def _route_post(self) -> Dict[str, Any]:
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0 or "Transfer-Encoding" in self.headers:
            # The body's framing is unknown (RFC 9112 §6.3): reply, then
            # close rather than parse the rest as the next request.
            self.close_connection = True
            raise ServeError(
                400,
                "bad-request",
                "a request body needs a non-negative integer "
                f"Content-Length and no Transfer-Encoding: {raw_length!r}",
            )
        body = self.rfile.read(length)
        path = self.path.partition("?")[0]
        if path == "/checkpoint":
            return self._pooled(self.service.checkpoint, is_write=True)
        if path == "/mutate":
            try:
                mutations = json.loads(body or b"{}")["mutations"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ServeError(
                    400,
                    "bad-request",
                    f"body must be {{'mutations': […]}}: {exc}",
                ) from exc
            return self._pooled(
                lambda: self.service.mutate(mutations), is_write=True
            )
        raise ServeError(404, "no-route", f"no route {path!r}")


def make_server(
    service: DatalogService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the HTTP front end (``port=0`` picks an ephemeral port)."""
    handler = type("BoundServeHandler", (_ServeHandler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
