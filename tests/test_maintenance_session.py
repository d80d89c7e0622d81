"""The maintenance session: what an :class:`IncrementalInstance` keeps across batches.

A warm batch pays for its footprint only.  It does not walk the active
domain where no plan reads it (a program that reads it takes the
mutated database's each batch), it compares the fixpoint before and after only at the
keys it wrote, it copies the fixpoint once, it generates no kernel
source that an earlier batch generated for the same plan, and it leaves
no garbage that only the cyclic collector can free.  Each check
here is against what the batch would do without the session: the full
comparison, a cold ``solve()``, a session that kept nothing.

``DATALOGO_ENGINE`` restricts the engines to one (the CI matrix leg).
"""

from __future__ import annotations

import gc

import pytest
from test_derived_indexes import EDGES, ENGINES, SCRIPT, dele, ins

from repro import programs
from repro.core import Database, parse_program, solve
from repro.core import incremental
from repro.core.guardrails import BudgetExceeded
from repro.core.incremental import IncrementalInstance, fingerprint
from repro.core.instance import Instance
from repro.core.journal import DurableInstance
from repro.core.naive import EvalStats
from repro.core.seminaive import SemiNaiveEvaluator
from repro.core.serve import DatalogService
from repro.semirings import TROP

#: Reads the active domain: ``Y`` is bound by no guard.
DOMAIN_PROGRAM = (
    "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y). U(X, Y) :- { T(X, Z) if Y != Z }."
)

#: ``E(a, c)`` (4.0) is longer than ``a → b → c`` (3.0): deleting it
#: over-deletes every ``T`` atom with a derivation through it, and
#: re-derives each at its old value; re-inserting it grows nothing.
RESTORING_PAIR = ([dele("a", "c")], [ins("a", "c", 4.0)])


def warm(program=None, engine="auto", **kwargs) -> IncrementalInstance:
    return IncrementalInstance(
        program or programs.apsp(),
        Database(pops=TROP, relations={"E": dict(EDGES)}),
        engine=engine,
        **kwargs,
    )


def batches():
    """The mixed script without its aborted batch, then the pair that
    leaves ``T`` exactly as it was."""
    return [batch for label, batch in SCRIPT if label != "abort"] + list(RESTORING_PAIR)


@pytest.fixture
def work_counters(monkeypatch):
    """Every :class:`EvalStats` an apply counts its work in."""
    made = []

    class Recorded(EvalStats):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(incremental, "EvalStats", Recorded)
    return made


class TestChangedSet:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_footprint_compare_equals_the_full_compare(self, engine):
        inc = warm(engine=engine)
        versions = dict(inc.versions)
        for batch in batches():
            before = inc.instance
            summary = inc.apply(batch)
            full = sorted(
                {m.relation for m in batch} | inc._changed_idbs(before)
            )
            assert summary.changed_relations == full
            for rel in full:
                versions[rel] = versions.get(rel, 0) + 1
            assert inc.versions == versions

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_restoring_batch_keeps_the_version(self, engine):
        inc = warm(engine=engine)
        for batch in RESTORING_PAIR:
            before, version = fingerprint(inc.instance), inc.versions.get("T", 0)
            summary = inc.apply(batch)
            assert summary.path == "seminaive"
            assert fingerprint(inc.instance) == before
            assert summary.changed_relations == ["E"]
            assert inc.versions.get("T", 0) == version
        assert inc.stats["dred_deletions"] > 0

    def test_a_cached_query_stays_a_hit(self, tmp_path):
        service = DatalogService(
            programs.apsp(), TROP, str(tmp_path),
            database=Database(pops=TROP, relations={"E": dict(EDGES)}),
        )
        try:
            value = service.query("T", ("a", "e"))
            for batch in RESTORING_PAIR:
                service.mutate(batch)
                hits = service.stats["cache_hits"]
                assert service.query("T", ("a", "e")) == value
                assert service.stats["cache_hits"] == hits + 1
        finally:
            service.close()


class TestDomain:
    @pytest.mark.parametrize("program", [programs.apsp(), programs.transitive_closure()])
    def test_warm_batches_never_walk_the_domain(self, program, monkeypatch):
        inc = warm(program)
        inc.apply([ins("c", "h", 2.0), dele("h", "i")])
        walked = []
        for name in ("active_domain", "enumeration_domain"):
            real = getattr(Database, name)

            def walk(self, *args, _name=name, _real=real, **kwargs):
                walked.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(Database, name, walk)
        for batch in ([ins("b", "k", 1.0)], [dele("e", "f")]):
            assert inc.apply(batch).path == "seminaive"
        assert walked == []
        monkeypatch.undo()
        cold = solve(program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(cold.instance)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_program_that_reads_the_domain_keeps_it_current(self, engine):
        program = parse_program(DOMAIN_PROGRAM)
        inc = warm(program, engine=engine)
        for batch, path in (
            ([ins("k", "y", 1.0)], "seminaive"),  # ``y`` enters the domain
            ([ins("y", "i", 2.0)], "seminaive"),
            ([dele("k", "y")], "seminaive"),  # ``y`` keeps one fact
            ([dele("y", "i")], "resolve"),  # ``y`` leaves the domain
            ([dele("i", "z"), ins("i", "z", 3.0)], "seminaive"),  # net: a re-weigh
        ):
            assert inc.apply(batch).path == path
            assert inc._domain == inc.database.enumeration_domain(program.constants())
            cold = solve(program, inc.database, method="seminaive", engine=engine)
            assert fingerprint(inc.instance) == fingerprint(cold.instance)


class TestResidentKernels:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_batches_generate_no_kernel(self, engine, work_counters):
        inc = warm(engine=engine)
        for batch in ([ins("c", "h", 2.0)], [dele("h", "i")]):
            inc.apply(batch)
        work_counters.clear()
        for batch in ([ins("b", "k", 1.0)], [dele("e", "f")]):
            assert inc.apply(batch).path == "seminaive"
        assert [stats.join.codegen_kernels for stats in work_counters] == [0, 0]
        cold = solve(programs.apsp(), inc.database, method="seminaive", engine=engine)
        assert fingerprint(inc.instance) == fingerprint(cold.instance)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_each_batch_plans_as_a_fresh_session_would(self, engine):
        """Kernels are shared by plan, not retained: every batch's work
        counters equal those of a session that forgot its kernels."""
        kept, fresh = warm(engine=engine), warm(engine=engine)
        for batch in batches():
            fresh._kernel_templates.clear()
            ours, theirs = kept.apply(batch), fresh.apply(batch)
            assert (ours.products, ours.keys_examined, ours.index_builds) == (
                theirs.products, theirs.keys_examined, theirs.index_builds
            )
            assert fingerprint(kept.instance) == fingerprint(fresh.instance)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_aborted_continuation_leaves_the_session_usable(self, engine, monkeypatch):
        inc = warm(engine=engine)
        inc.apply([ins("c", "h", 2.0), dele("h", "i")])

        def exhausted(self, *args, **kwargs):
            raise BudgetExceeded(resource="iterations", limit=1, spent=1)

        monkeypatch.setattr(incremental._Continuation, "run", exhausted)
        # A delete whose re-derivation needs more than the bootstrap.
        assert inc.apply([dele("a", "b")]).path == "resolve"
        monkeypatch.undo()
        for batch in ([ins("a", "b", 1.0)], [dele("e", "f")], [ins("b", "k", 1.0)]):
            assert inc.apply(batch).path == "seminaive"
            cold = solve(programs.apsp(), inc.database, method="seminaive", engine=engine)
            assert fingerprint(inc.instance) == fingerprint(cold.instance)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_durable_rollback_leaves_the_session_usable(self, engine, tmp_path, monkeypatch):
        durable = DurableInstance(
            str(tmp_path), programs.apsp(), TROP,
            database=Database(pops=TROP, relations={"E": dict(EDGES)}), engine=engine,
        )
        durable.apply([ins("c", "h", 2.0)])

        def fail(self, *args, **kwargs):
            monkeypatch.undo()  # once: the rollback replays the journal
            raise RuntimeError("synthetic failure inside the continuation")

        monkeypatch.setattr(SemiNaiveEvaluator, "run", fail)
        with pytest.raises(RuntimeError, match="synthetic"):
            durable.apply([dele("e", "f")])
        assert durable.healthy
        for batch in ([dele("e", "f")], [ins("b", "k", 1.0)]):
            assert durable.apply(batch).path == "seminaive"
            cold = solve(programs.apsp(), durable.database, method="seminaive", engine=engine)
            assert fingerprint(durable.instance) == fingerprint(cold.instance)
        durable.close()

    @pytest.mark.parametrize("engine", [e for e in ENGINES if e != "interpreted"])
    def test_a_batch_leaves_no_cyclic_garbage(self, engine):
        """Reference counting frees everything a warm batch built: the
        evaluators, their guards, kernels and derived databases form no
        cycle, so the cyclic collector finds nothing to do after it.
        (The interpreted pipeline, the differential baseline, leaves the
        recursive closures of each rule application to the collector.)"""
        inc = warm(engine=engine)
        inc.apply([ins("c", "h", 2.0), dele("h", "i")])
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for batch in ([ins("b", "k", 1.0)], [dele("e", "f")], [ins("a", "e", 2.0)]):
                inc.apply(batch)
                assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_the_published_fixpoint_is_never_written(self):
        inc = warm()
        for batch in batches():
            before = inc.instance
            snapshot = Instance(TROP, before.as_dict())
            inc.apply(batch)
            assert fingerprint(before) == fingerprint(snapshot)
