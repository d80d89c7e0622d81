"""The cold ``datalogo run`` path: lazy package namespaces, the paused
cyclic collector around ``solve`` and the write path, and the one-line
JSON output."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.cli import main
from repro.core import BudgetExceeded, Database, Instance, parse_program, solve
from repro.core.engine import collector_paused
from repro.core.incremental import IncrementalInstance, Mutation
from repro.core.io import instance_from_dict, instance_to_dict
from repro.core.journal import DurableInstance, FileStorage
from repro.semirings import BOTTLENECK, INF, TROP, TropicalPSemiring

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a ``run`` never needs: the batched backend (and numpy with
#: it) and the sharded pool.
HEAVY = ("numpy", "repro.core.batched", "repro.core.sharded")

TC = "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y).\n"


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with this tree's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statement: str) -> list:
    code = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    return json.loads(_python(code))


class TestLazyNamespaces:
    def test_cli_import_leaves_heavy_modules_out(self):
        assert _loaded_after("import repro.cli") == []

    def test_solver_names_leave_heavy_modules_out(self):
        statement = (
            "from repro.core import solve, Database, parse_program, "
            "DatalogService"
        )
        assert _loaded_after(statement) == []

    def test_every_exported_name_resolves(self):
        out = _python(
            "import repro, repro.core\n"
            "for pkg in (repro, repro.core):\n"
            "    for name in pkg.__all__:\n"
            "        getattr(pkg, name)\n"
            "print(len(repro.__all__), len(repro.core.__all__))\n"
        )
        top, core = map(int, out.split())
        assert top == len(repro.__all__) and core == len(repro.core.__all__)

    def test_star_import_binds_every_name(self):
        out = _python(
            "from repro.core import *\n"
            "import repro.core\n"
            "print(sorted(set(repro.core.__all__) - set(globals())))\n"
        )
        assert out.strip() == "[]"

    def test_dir_lists_every_name(self):
        out = _python(
            "import repro, repro.core\n"
            "print(sorted(set(repro.__all__) - set(dir(repro))"
            " | set(repro.core.__all__) - set(dir(repro.core))))\n"
        )
        assert out.strip() == "[]"

    def test_unknown_name_is_an_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.core.no_such_name  # noqa: B018
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018

    def test_analysis_provenance_stays_the_function(self):
        out = _python(
            "import repro.analysis.provenance\n"
            "import repro.analysis\n"
            "print(callable(repro.analysis.provenance))\n"
        )
        assert out.strip() == "True"


def _tc_database(n: int = 12) -> Database:
    edges = {(f"v{i}", f"v{i + 1}"): 1.0 for i in range(n)}
    return Database(pops=TROP, relations={"E": edges})


class TestCollectorPaused:
    def test_restores_an_enabled_collector(self):
        assert gc.isenabled()
        seen = []
        with collector_paused():
            seen.append(gc.isenabled())
        assert seen == [False] and gc.isenabled()
        solve(parse_program(TC), _tc_database(), method="seminaive")
        assert gc.isenabled()

    def test_keeps_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            solve(parse_program(TC), _tc_database(), method="seminaive")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restores_after_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            solve(parse_program(TC), _tc_database(), max_tuples=3)
        assert gc.isenabled()

    def test_nested_entries_across_threads(self):
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def outer():
            with collector_paused():
                inside.set()
                release.wait(10)
                seen["outer_before_exit"] = gc.isenabled()

        thread = threading.Thread(target=outer)
        thread.start()
        assert inside.wait(10)
        with collector_paused():
            seen["inner"] = gc.isenabled()
        # The other thread is still inside: the collector stays paused.
        seen["between"] = gc.isenabled()
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        assert seen == {"inner": False, "between": False, "outer_before_exit": False}
        assert gc.isenabled()

    def test_stress_more_threads_than_cores(self):
        # A lost update of the depth counter would either re-enable the
        # collector while a thread is still inside or leave it disabled.
        paused_inside, errors = [], []

        def churn():
            try:
                for _ in range(300):
                    with collector_paused():
                        paused_inside.append(not gc.isenabled())
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(paused_inside) == 8 * 300 and all(paused_inside)
        assert gc.isenabled()

    def test_concurrent_solves(self):
        program, database = parse_program(TC), _tc_database(40)
        expected = solve(program, database, method="seminaive").instance
        results, errors = [], []

        def run():
            try:
                for _ in range(5):
                    results.append(
                        solve(program, database, method="seminaive").instance
                    )
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 10 and all(r.equals(expected) for r in results)
        assert gc.isenabled()


class TestCollectorOnWritePath:
    """A mutation batch runs with the collector paused — in memory and
    through the journal, checkpoints included — and restores it after
    every outcome."""

    def _probe(self, monkeypatch, cls, name):
        """Record the collector's state whenever ``cls.name`` runs."""
        seen = []
        real = getattr(cls, name)

        def probing(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, probing)
        return seen

    def test_good_batch(self, monkeypatch):
        inc = IncrementalInstance(parse_program(TC), _tc_database())
        seen = self._probe(monkeypatch, IncrementalInstance, "_mutated_database")
        assert inc.apply([Mutation("insert", "E", ("v3", "v9"), 0.5)]).path == "seminaive"
        assert seen == [False] and gc.isenabled()

    def test_value_error_batch(self):
        inc = IncrementalInstance(parse_program(TC), _tc_database())
        with pytest.raises(ValueError):
            inc.apply([Mutation("insert", "T", ("v0", "v1"), 1.0)])
        assert gc.isenabled()

    def test_batch_falling_back_to_a_nested_solve(self, monkeypatch):
        # Conditions reading an IDB gate it both ways: always a re-solve.
        program = parse_program(
            TC + "U(X) :- { E(X, Y) if not T(Y, X) }.\n"
        )
        inc = IncrementalInstance(program, _tc_database())
        seen = self._probe(monkeypatch, IncrementalInstance, "_resolve")
        assert inc.apply([Mutation("delete", "E", ("v3", "v4"))]).path == "resolve"
        assert seen == [False] and gc.isenabled()

    def test_durable_apply_abort_and_checkpoint(self, tmp_path, monkeypatch):
        dur = DurableInstance(
            str(tmp_path), parse_program(TC), TROP, database=_tc_database(),
            checkpoint_every=1,
        )
        seen = self._probe(monkeypatch, FileStorage, "fsync")
        dur.apply([Mutation("insert", "E", ("v3", "v9"), 0.5)])
        # The append's, the checkpoint's and the rotation's fsyncs, all
        # inside the pause.
        assert len(seen) == 3 and not any(seen) and gc.isenabled()

        def failing(mutations):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(dur.inc, "apply", failing)
        with pytest.raises(RuntimeError, match="synthetic"):
            dur.apply([Mutation("insert", "E", ("v4", "v9"), 0.5)])
        assert dur.stats["apply_aborts"] == 1 and dur.healthy
        assert gc.isenabled()
        dur.close()


def _run_json(tmp_path, capsys, pops: str, edges) -> str:
    program = tmp_path / "tc.dl"
    program.write_text(TC)
    edb = tmp_path / "edb.json"
    # ``Infinity`` is Python's JSON spelling of math.inf.
    edb.write_text(json.dumps({"relations": {"E": edges}}))
    code = main([
        "run", str(program), "--pops", pops, "--edb", str(edb),
        "--method", "naive", "--preflight", "off", "--output", "json",
    ])
    assert code == 0
    return capsys.readouterr().out


class TestRunJsonOutput:
    def test_trop_with_an_infinite_weight(self, tmp_path, capsys):
        # An ∞ edge is Trop+'s 0: no atom through it is stored.
        out = _run_json(tmp_path, capsys, "trop", [
            [["a", "b"], 1.0], [["b", "c"], INF], [["c", "d"], 2],
            [["b", "e"], 0.5],
        ])
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out) == {
            "steps": 2,
            "pops": "Trop+",
            "instance": {"T": [
                [["a", "b"], 1.0],
                [["a", "e"], 1.5],
                [["b", "e"], 0.5],
                [["c", "d"], 2.0],
            ]},
        }

    def test_bottleneck_stores_infinity(self, tmp_path, capsys):
        out = _run_json(tmp_path, capsys, "bottleneck", [
            [["a", "b"], INF], [["b", "c"], INF], [["c", "d"], 3.0],
        ])
        assert json.loads(out)["instance"] == {"T": [
            [["a", "b"], {"inf": True}],
            [["a", "c"], {"inf": True}],
            [["a", "d"], 3.0],
            [["b", "c"], {"inf": True}],
            [["b", "d"], 3.0],
            [["c", "d"], 3.0],
        ]}

    def test_tropp_bags(self, tmp_path, capsys):
        out = _run_json(tmp_path, capsys, "tropp:2", [
            [["a", "b"], 1.0], [["b", "c"], 2.0], [["a", "c"], 4.0],
        ])
        assert json.loads(out) == {
            "steps": 2,
            "pops": "Trop+_2",
            "instance": {"T": [
                [["a", "b"], {"bag": [1.0, {"inf": True}, {"inf": True}]}],
                [["a", "c"], {"bag": [3.0, 4.0, {"inf": True}]}],
                [["b", "c"], {"bag": [2.0, {"inf": True}, {"inf": True}]}],
            ]},
        }


def test_instance_dict_round_trip():
    tropp = TropicalPSemiring(2)
    bags = Instance(tropp, {
        "T": {("b", 2): (1.0, 3.0, INF), ("a", 10): (0.5, 0.5, 2.0)},
        "L": {("z",): (INF, INF, INF)},
    })
    back = instance_from_dict(tropp, instance_to_dict(bags))
    assert back.equals(bags)
    bottleneck = Instance(BOTTLENECK, {"T": {("a", "b"): INF, ("c", "a"): 1.0}})
    assert instance_from_dict(
        BOTTLENECK, instance_to_dict(bottleneck)
    ).equals(bottleneck)
