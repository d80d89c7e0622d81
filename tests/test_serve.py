"""The fault-tolerant `datalogo serve` front end (`core/serve.py`)."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import core, programs, workloads
from repro.core.incremental import Mutation, fingerprint
from repro.core.io import decode_value
from repro.core.serve import (
    DatalogService,
    ServeError,
    _parse_key,
    make_server,
)
from repro.semirings import INF, TROP, TropicalPSemiring


def trop_db():
    return core.Database(
        pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
    )


@pytest.fixture()
def service(tmp_path):
    svc = DatalogService(
        programs.sssp("a"), TROP, str(tmp_path), database=trop_db(),
        checkpoint_every=100, query_wall_s=5.0,
    )
    yield svc
    svc.close()


class TestQueries:
    def test_point_query_and_memoization(self, service):
        assert service.query("L", ("d",)) == 8.0
        assert service.query("L", ("d",)) == 8.0
        assert service.stats["cache_hits"] == 1
        assert service.stats["cache_misses"] == 1

    def test_mutation_invalidates_via_version_vector(self, service):
        service.query("L", ("d",))
        service.mutate([Mutation("insert", "E", ("a", "d"), 0.5)])
        assert service.query("L", ("d",)) == 0.5
        assert service.stats["cache_misses"] == 2

    def test_unrelated_relation_keeps_cache(self, tmp_path):
        # Two independent EDBs: mutating one must not evict the other's
        # cached reads (per-relation version keys, not a global epoch).
        program = core.parse_program(
            "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n"
            "U(X, Y) :- F(X, Y) | U(X, Z) * F(Z, Y).\n"
        )
        db = core.Database(
            pops=TROP,
            relations={"E": {("a", "b"): 1.0}, "F": {("p", "q"): 2.0}},
        )
        with DatalogService(
            program, TROP, str(tmp_path), database=db
        ) as svc:
            assert svc.query("T", ("a", "b")) == 1.0
            svc.mutate([Mutation("insert", "F", ("q", "r"), 1.0)])
            svc.query("T", ("a", "b"))
            assert svc.stats["cache_hits"] == 1

    def test_scan_patterns(self, service):
        full = service.scan("L")
        assert len(full) == 4
        bound = dict(service.scan("E", pattern=("a", None)))
        assert bound[("a", "b")] == 1.0
        assert ("b", "d") not in bound

    @pytest.mark.parametrize("pattern", [None, ("a", None)])
    def test_scan_limit_is_exact(self, service, pattern):
        """``limit=n`` returns at most ``n`` entries, none for ``0``, on
        the enumeration path and on the index-probe path."""
        full = service.scan("E", pattern=pattern)
        assert len(full) >= 2
        assert service.scan("E", pattern=pattern, limit=0) == []
        assert service.scan("E", pattern=pattern, limit=1) == full[:1]
        assert service.scan("E", pattern=pattern, limit=len(full) + 1) == full

    def test_scan_budget_is_structured_not_a_hang(self, service):
        with pytest.raises(ServeError) as exc:
            service.scan("L", wall_s=-1.0)
        assert exc.value.status == 408
        assert exc.value.code == "query-budget"
        assert service.stats["query_timeouts"] == 1

    def test_scan_index_never_caches_stale_data_under_new_version(
        self, service, monkeypatch
    ):
        """TOCTOU regression: a mutation landing between scan()'s
        support snapshot and the index build must not cache the
        pre-mutation index under the post-mutation version (which would
        serve stale results until the version moved again)."""
        assert dict(service.scan("L", pattern=("d",)))[("d",)] == 8.0
        real_support = DatalogService._support
        fired = []

        def racing_support(self, relation):
            support = real_support(self, relation)
            if not fired:
                fired.append(True)
                # The writer swaps the instance, then bumps versions —
                # exactly the window the version-before-support
                # discipline must tolerate.
                self.mutate([Mutation("insert", "E", ("a", "d"), 0.5)])
            return support

        monkeypatch.setattr(DatalogService, "_support", racing_support)
        service.scan("L", pattern=("d",))  # the racy scan
        monkeypatch.setattr(DatalogService, "_support", real_support)
        assert dict(service.scan("L", pattern=("d",)))[("d",)] == 0.5

    def test_unknown_relation_is_404(self, service):
        with pytest.raises(ServeError) as exc:
            service.query("Nope", ("a",))
        assert exc.value.status == 404
        assert exc.value.code == "unknown-relation"

    def test_bad_mutation_is_400_and_leaves_state(self, service):
        before = fingerprint(service.durable.instance)
        with pytest.raises(ServeError) as exc:
            service.mutate(
                [{"op": "insert", "relation": "L", "key": ["a"], "value": 1.0}]
            )
        assert exc.value.status == 400
        assert fingerprint(service.durable.instance) == before
        # nothing journaled either: a reopened instance has seq 0
        assert service.durable.seq == 0


class TestBoundQueries:
    """``GET /query?...&bound=1`` / :meth:`DatalogService.query_bound`:
    the demand-driven read path."""

    def test_warm_idb_routes_to_memoized_read(self, service):
        assert service.query_bound("L", ("d",)) == 8.0
        assert service.stats["demand_queries_warm"] == 1
        assert service.stats["demand_queries"] == 0
        # Second read hits the ordinary memo cache.
        assert service.query_bound("L", ("d",)) == 8.0
        assert service.stats["cache_hits"] == 1

    def test_cold_idb_recomputes_through_demand_path(self, service):
        expected = service.query("L", ("d",))
        # Evict the materialized IDB: the demand path must recompute
        # the answer from the EDB alone, not serve a stale memo.
        service.durable.inc.instance._data.pop("L")
        service._cache.clear()
        assert service.query_bound("L", ("d",)) == expected
        assert service.stats["demand_queries"] == 1

    def test_unknown_relation_still_404(self, service):
        with pytest.raises(ServeError) as err:
            service.query_bound("Nope", ("d",))
        assert err.value.status == 404

    def test_concurrent_bound_reads_see_acknowledged_states(
        self, tmp_path, monkeypatch
    ):
        """Demand-path reads racing ``mutate`` never raise (the solve
        reads an immutable database, never the writer's stores) and
        every answer is the from-scratch fixpoint at some acknowledged
        sequence number.  The EDB is large enough (~2k edges) that a
        solve iterating it overlaps the writer's mutations."""
        program = programs.sssp(0)
        edges = dict(workloads.random_weighted_digraph(150, 0.1, seed=3))
        nodes = [0, 7, 42, 99, 149]

        def fixpoint(edb):
            db = core.Database(pops=TROP, relations={"E": dict(edb)})
            result = core.solve(program, db, method="seminaive")
            return {n: result.instance.get("L", (n,)) for n in nodes}

        service = DatalogService(
            program, TROP, str(tmp_path),
            database=core.Database(pops=TROP, relations={"E": dict(edges)}),
            checkpoint_every=100, query_wall_s=5.0,
        )
        monkeypatch.setattr(service, "_materialized", lambda relation: False)
        batches = [
            [Mutation("insert", "E", (0, n), 0.5) for n in nodes[1:]],
            [Mutation("delete", "E", (0, n)) for n in nodes[1:]],
            [Mutation("insert", "E", (n, n + 1000), 1.0) for n in range(40)],
            [Mutation("delete", "E", (n, n + 1000)) for n in range(40)],
        ] * 3
        acknowledged = [fixpoint(edges)]
        answers, errors = [], []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    for n in nodes:
                        answers.append((n, service.query_bound("L", (n,))))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave readers and writer finely
        for t in threads:
            t.start()
        try:
            for batch in batches:
                service.mutate(batch)
                for m in batch:
                    if m.op == "insert":
                        edges[m.key] = m.value
                    else:
                        edges.pop(m.key, None)
                acknowledged.append(fixpoint(edges))
        finally:
            done.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
            service.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert answers
        for n, value in answers:
            assert any(state[n] == value for state in acknowledged), (n, value)

    def test_http_bound_param(self, service):
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{port}/query?relation=L&key=d&bound=1"
            with urllib.request.urlopen(url, timeout=10) as r:
                doc = json.loads(r.read())
            assert doc["value"] == 8.0
            assert service.stats["demand_queries_warm"] == 1
        finally:
            server.shutdown()
            server.server_close()


class TestWriteSemantics:
    def test_mutate_returns_journal_seq_for_dedup(self, service):
        out = service.mutate([Mutation("insert", "E", ("a", "d"), 0.5)])
        assert out["seq"] == 1
        assert out["seq"] == service.durable.seq

    def test_unhealthy_instance_refuses_writes(self, service):
        service.durable.healthy = False
        with pytest.raises(ServeError) as exc:
            service.mutate([Mutation("insert", "E", ("a", "d"), 0.5)])
        assert exc.value.status == 503
        assert exc.value.code == "unhealthy"
        with pytest.raises(ServeError) as exc:
            service.checkpoint()
        assert exc.value.status == 503


class TestDurability:
    def test_service_state_survives_restart(self, tmp_path):
        d = str(tmp_path)
        with DatalogService(
            programs.sssp("a"), TROP, d, database=trop_db()
        ) as svc:
            svc.mutate([Mutation("insert", "E", ("a", "d"), 0.5)])
            fp = fingerprint(svc.durable.instance)
        with DatalogService(programs.sssp("a"), TROP, d) as svc2:
            assert fingerprint(svc2.durable.instance) == fp
            assert svc2.query("L", ("d",)) == 0.5

    def test_stats_snapshot_merges_all_layers(self, service):
        service.query("L", ("d",))
        service.mutate([Mutation("insert", "E", ("a", "d"), 0.5)])
        snap = service.stats_snapshot()
        for key in (
            "queries", "cache_hits", "mutation_batches",       # serve
            "journal_records", "checkpoint_writes",            # journal
            "incremental_fallbacks", "dred_deletions",         # incremental
            "incremental_products",
        ):
            assert key in snap, key


class TestHttp:
    @pytest.fixture()
    def endpoint(self, service):
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{port}"
        server.shutdown()
        server.server_close()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as r:
            return r.status, json.loads(r.read())

    def _post(self, url, payload):
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST"
        )
        with urllib.request.urlopen(req, timeout=10) as r:
            return r.status, json.loads(r.read())

    def test_round_trip(self, endpoint):
        assert self._get(endpoint + "/health")[1]["status"] == "ok"
        status, doc = self._get(endpoint + "/query?relation=L&key=d")
        assert status == 200 and doc["value"] == 8.0
        status, doc = self._post(
            endpoint + "/mutate",
            {"mutations": [
                {"op": "insert", "relation": "E", "key": ["a", "d"],
                 "value": 0.5},
            ]},
        )
        assert status == 200 and doc["path"] == "seminaive"
        assert self._get(endpoint + "/query?relation=L&key=d")[1]["value"] == 0.5
        status, doc = self._get(
            endpoint + "/scan?relation=E&pattern=a,_&limit=9"
        )
        assert status == 200
        assert [["a", "d"], 0.5] in doc["entries"]
        status, doc = self._post(endpoint + "/checkpoint", {})
        assert status == 200 and doc["seq"] == 1
        assert self._get(endpoint + "/stats")[1]["mutation_batches"] == 1

    @pytest.mark.parametrize("pattern", ["", "&pattern=a,_"])
    def test_scan_limit_zero_is_empty(self, endpoint, pattern):
        url = endpoint + "/scan?relation=E" + pattern
        assert self._get(url + "&limit=0") == (
            200, {"relation": "E", "entries": []}
        )
        assert len(self._get(url + "&limit=1")[1]["entries"]) == 1

    def test_mutate_reports_products_and_stats_sum_them(self, endpoint):
        total = 0
        for op in ("insert", "delete"):
            mutation = {"op": op, "relation": "E", "key": ["a", "d"]}
            if op == "insert":
                mutation["value"] = 0.5
            status, doc = self._post(
                endpoint + "/mutate", {"mutations": [mutation]}
            )
            assert status == 200 and doc["path"] == "seminaive"
            assert doc["products"] > 0 and doc["keys_examined"] > 0
            total += doc["products"]
        stats = self._get(endpoint + "/stats")[1]
        assert stats["incremental_products"] == total

    def test_errors_are_structured_json(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(endpoint + "/query?relation=Nope&key=a")
        assert exc.value.code == 404
        body = json.loads(exc.value.read())
        assert body["error"]["code"] == "unknown-relation"
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(endpoint + "/query?relation=L")
        assert exc.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(endpoint + "/mutate", {"not-mutations": []})
        assert exc.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(endpoint + "/no/such/route")
        assert exc.value.code == 404

    def test_health_reports_unhealthy_as_503(self, service, endpoint):
        assert self._get(endpoint + "/health")[1]["status"] == "ok"
        service.durable.healthy = False
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(endpoint + "/health")
        assert exc.value.code == 503
        assert json.loads(exc.value.read())["status"] == "unhealthy"

    def test_slow_mutation_is_not_reported_overloaded(self, tmp_path):
        """Writes are exempt from the pool timeout: a mutation slower
        than the read budget must return its real outcome (200 + seq),
        not a 503 for a batch that was durably applied anyway."""
        svc = DatalogService(
            programs.sssp("a"), TROP, str(tmp_path), database=trop_db(),
            query_wall_s=0.01,  # pool timeout ≈ 1.04s for reads
        )
        real_apply = svc.durable.apply

        def slow_apply(muts):
            time.sleep(1.5)
            return real_apply(muts)

        svc.durable.apply = slow_apply
        server = make_server(svc, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, doc = self._post(
                f"http://127.0.0.1:{port}/mutate",
                {"mutations": [
                    {"op": "insert", "relation": "E", "key": ["a", "d"],
                     "value": 0.5},
                ]},
            )
            assert status == 200
            assert doc["seq"] == 1
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_concurrent_reads_during_writes(self, endpoint):
        """Hammer reads while a writer mutates: every response is a
        consistent fixpoint value, never an error or a torn state."""
        errors = []

        def reader():
            for _ in range(20):
                try:
                    _status, doc = self._get(
                        endpoint + "/query?relation=L&key=d"
                    )
                    assert doc["value"] in (8.0, 0.5)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        self._post(
            endpoint + "/mutate",
            {"mutations": [
                {"op": "insert", "relation": "E", "key": ["a", "d"],
                 "value": 0.5},
            ]},
        )
        for t in threads:
            t.join()
        assert errors == []


class TestTropPCanonical:
    """Over Trop+_p, an int-valued bag a client posts is stored and read
    back as ``1 ⊗ v`` (floats); the IDB is that of the float bag, and a
    SIGKILLed server recovers both."""

    PROGRAM = "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n"
    EDGES = {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 0.5}

    @staticmethod
    def _boot(tmp_path, *extra):
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             str(tmp_path / "tc.dl"), "--pops", "tropp:1",
             "--data-dir", str(tmp_path / "state"), "--port", "0",
             "--threads", "1", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        banner = proc.stdout.readline()
        assert banner.startswith("# serving on http://"), banner
        return proc, banner.split()[3]

    @staticmethod
    def _call(endpoint, path, payload=None):
        data = None if payload is None else json.dumps(payload).encode()
        with urllib.request.urlopen(endpoint + path, data=data, timeout=10) as r:
            return json.loads(r.read())

    def _state(self, endpoint):
        return {
            rel: sorted(
                map(json.dumps, self._call(endpoint, f"/scan?relation={rel}")["entries"])
            )
            for rel in ("E", "T")
        }

    def test_int_bag_is_stored_canonical_and_recovered(self, tmp_path):
        (tmp_path / "tc.dl").write_text(self.PROGRAM)
        (tmp_path / "g.json").write_text(json.dumps({"relations": {
            "E": [[list(k), w] for k, w in self.EDGES.items()]
        }}))
        pops = TropicalPSemiring(1)
        floats = {k: (w, INF) for k, w in {**self.EDGES, ("c", "d"): 3.0}.items()}
        want = {
            tuple(key): value
            for key, value in core.solve(
                core.parse_program(self.PROGRAM),
                core.Database(pops=pops, relations={"E": floats}),
            ).instance.support("T").items()
        }
        proc, endpoint = self._boot(tmp_path, "--edb", str(tmp_path / "g.json"))
        try:
            self._call(endpoint, "/mutate", {"mutations": [{
                "op": "insert", "relation": "E", "key": ["c", "d"],
                "value": {"bag": [3, {"inf": True}]},
            }]})
            edge = self._call(endpoint, "/query?relation=E&key=c,d")["value"]
            assert edge == {"bag": [3.0, {"inf": True}]}
            assert type(edge["bag"][0]) is float
            got = {
                tuple(key): decode_value(value)
                for key, value in self._call(endpoint, "/scan?relation=T")["entries"]
            }
            assert {k: repr(v) for k, v in got.items()} == {
                k: repr(v) for k, v in want.items()
            }
            live = self._state(endpoint)
        finally:
            proc.kill()
            proc.wait()
        proc, endpoint = self._boot(tmp_path)
        try:
            assert self._state(endpoint) == live
            assert self._call(endpoint, "/stats")["recoveries"] == 1
        finally:
            proc.kill()
            proc.wait()


def _serving(service, handler=None):
    """Start ``service``'s HTTP front end on an ephemeral port; returns
    ``(server, port)``.  ``handler`` subclasses the bound handler."""
    server = make_server(service, port=0)
    if handler is not None:
        server.RequestHandlerClass = handler(server.RequestHandlerClass)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, server.server_address[1]


def _stop(server):
    server.shutdown()
    server.server_close()


def _call(conn, method, path, body=None, headers=None):
    """One request on a keep-alive ``http.client`` connection."""
    conn.request(method, path, body=body, headers=headers or {})
    reply = conn.getresponse()
    return reply.status, reply, json.loads(reply.read())


class _CountingWriter:
    """Records every ``write`` on a handler's ``wfile``."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestTransport:
    """One write per response on a ``TCP_NODELAY`` socket: no reply waits
    on Nagle's algorithm and the client's delayed ACK (≈ 40 ms)."""

    @pytest.fixture()
    def recorded(self, service):
        seen = {"nodelay": [], "writes": []}

        def recording(base):
            class Recording(base):
                def setup(self):
                    super().setup()
                    seen["nodelay"].append(
                        self.connection.getsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY
                        )
                    )
                    self.wfile = _CountingWriter(self.wfile, seen["writes"])

            return Recording

        server, port = _serving(service, recording)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        yield conn, seen
        conn.close()
        _stop(server)

    def test_accepted_socket_has_nodelay(self, recorded):
        conn, seen = recorded
        assert _call(conn, "GET", "/health")[0] == 200
        assert len(seen["nodelay"]) == 1 and seen["nodelay"][0]

    def test_small_response_is_one_write(self, recorded):
        conn, seen = recorded
        for path, status in (
            ("/query?relation=L&key=d", 200),
            ("/scan?relation=E&pattern=a,_", 200),
            ("/query?relation=Nope&key=a", 404),
            ("/health", 200),
        ):
            before = len(seen["writes"])
            got, _reply, doc = _call(conn, "GET", path)
            assert got == status
            assert len(seen["writes"]) == before + 1, path
            head, _sep, body = seen["writes"][-1].partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert f"Content-Length: {len(body)}".encode() in head
            assert json.loads(body) == doc
        before = len(seen["writes"])
        got, _reply, doc = _call(
            conn, "POST", "/mutate",
            body=json.dumps({"mutations": [
                {"op": "insert", "relation": "E", "key": ["a", "d"],
                 "value": 0.5},
            ]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert got == 200 and doc["seq"] == 1
        assert len(seen["writes"]) == before + 1
        assert len(seen["nodelay"]) == 1  # one keep-alive connection

    def test_keep_alive_point_reads_are_not_ack_bound(self, service):
        """30 sequential keep-alive round trips: a split header/body
        write without ``TCP_NODELAY`` stalls each one on the client's
        delayed ACK, ≈ 44 ms on Linux."""
        server, port = _serving(service)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            walls = []
            for _ in range(30):
                start = time.perf_counter()
                status, _reply, doc = _call(
                    conn, "GET", "/query?relation=L&key=d"
                )
                walls.append(time.perf_counter() - start)
                assert status == 200 and doc["value"] == 8.0
            assert statistics.median(walls) < 0.020, walls
        finally:
            conn.close()
            _stop(server)


class TestMalformedRequests:
    """Every request parameter is parsed inside the structured-error
    barrier: a malformed one is a JSON 4xx, never a dropped connection."""

    @pytest.fixture()
    def conn(self, service):
        server, port = _serving(service)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        yield conn
        conn.close()
        _stop(server)

    @pytest.mark.parametrize(
        "path, code",
        [
            ("/scan?relation=E&pattern=[1", "bad-key"),
            ("/scan?relation=E&pattern=[[1]]", "bad-key"),
            ("/scan?relation=E&limit=x", "bad-request"),
            ("/scan?relation=E&limit=-1", "bad-request"),
            ("/query?relation=L&key=[1", "bad-key"),
            ("/query?relation=L&key=[{}]", "bad-key"),
        ],
    )
    def test_bad_parameter_is_400_on_a_live_connection(self, conn, path, code):
        status, _reply, doc = _call(conn, "GET", path)
        assert status == 400 and doc["error"]["code"] == code
        status, reply, doc = _call(conn, "GET", "/query?relation=L&key=d")
        assert status == 200 and doc["value"] == 8.0
        assert reply.getheader("Connection") is None

    @pytest.mark.parametrize("body", [b"[1]", b"{", b'{"x": 1}', b"7"])
    def test_bad_mutate_body_is_400_on_a_live_connection(self, conn, body):
        status, _reply, doc = _call(conn, "POST", "/mutate", body=body)
        assert status == 400 and doc["error"]["code"] == "bad-request"
        status, _reply, doc = _call(conn, "GET", "/query?relation=L&key=d")
        assert status == 200 and doc["value"] == 8.0

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400_then_close(self, conn, service, length):
        """An unframed body cannot be skipped: the reply says
        ``Connection: close`` (RFC 9112 §6.3) and the server stays up."""
        conn.putrequest("POST", "/mutate")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        reply = conn.getresponse()
        doc = json.loads(reply.read())
        assert reply.status == 400 and doc["error"]["code"] == "bad-request"
        assert reply.getheader("Connection") == "close"
        status, _reply, doc = _call(conn, "GET", "/query?relation=L&key=d")
        assert status == 200 and doc["value"] == 8.0
        assert service.durable.seq == 0

    def test_chunked_body_is_400_then_close(self, conn, service):
        body = json.dumps({"mutations": [
            {"op": "insert", "relation": "E", "key": ["a", "d"], "value": 0.5},
        ]}).encode()
        conn.request("POST", "/mutate", body=iter([body]), encode_chunked=True)
        reply = conn.getresponse()
        doc = json.loads(reply.read())
        assert reply.status == 400 and doc["error"]["code"] == "bad-request"
        assert reply.getheader("Connection") == "close"
        status, _reply, doc = _call(conn, "GET", "/query?relation=L&key=d")
        assert status == 200 and doc["value"] == 8.0
        assert service.durable.seq == 0

    def test_post_body_is_drained_on_every_route(self, conn):
        status, _reply, doc = _call(conn, "POST", "/nowhere", body=b"{}")
        assert status == 404 and doc["error"]["code"] == "no-route"
        status, _reply, doc = _call(conn, "POST", "/checkpoint", body=b"{}")
        assert status == 200 and doc["seq"] == 0
        status, _reply, doc = _call(conn, "GET", "/query?relation=L&key=d")
        assert status == 200 and doc["value"] == 8.0


class TestPool:
    """Point reads run on the connection thread; scans, bound queries,
    stats and writes keep the pool's budget and its 503."""

    def test_point_reads_bypass_a_held_pool(self, tmp_path):
        svc = DatalogService(
            programs.sssp("a"), TROP, str(tmp_path), database=trop_db(),
            pool_workers=1,
            query_wall_s=0.05,  # pool timeout 1.2 s for reads
        )
        release = threading.Event()
        svc.pool.submit(release.wait, 30)
        server, port = _serving(svc)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            status, _reply, doc = _call(conn, "GET", "/query?relation=L&key=d")
            assert status == 200 and doc["value"] == 8.0
            for path in ("/scan?relation=E", "/query?relation=L&key=d&bound=1"):
                before = svc.stats["query_timeouts"]
                status, _reply, doc = _call(conn, "GET", path)
                assert status == 503, path
                assert doc["error"]["code"] == "overloaded"
                assert svc.stats["query_timeouts"] == before + 1
            release.set()
            status, _reply, doc = _call(conn, "GET", "/scan?relation=E")
            assert status == 200 and doc["entries"]
        finally:
            release.set()
            conn.close()
            _stop(server)
            svc.close()


class TestKeyParsing:
    def test_comma_form(self):
        assert _parse_key("a,b") == ("a", "b")
        assert _parse_key("a, 3") == ("a", 3)
        assert _parse_key("a,_") == ("a", None)
        assert _parse_key("a,") == ("a", None)

    def test_json_form(self):
        assert _parse_key('["a", 3, null]') == ("a", 3, None)
        with pytest.raises(ServeError):
            _parse_key("[not json")
        with pytest.raises(ServeError):
            _parse_key('["unclosed"')
