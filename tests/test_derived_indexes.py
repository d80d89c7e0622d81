"""Derived indexes: a mutation batch maintains indexes instead of rebuilding them.

:meth:`KeyIndex.derive` makes a frozen index over a store after a batch
from the index over the store before it.  ``Database.derive`` uses it
for every EDB store a batch replaces, and ``IncrementalInstance`` keeps
resident indexes over its fixpoint, derived by DRed's erased keys and by
the continuation's merged δs.  A derived index must be indistinguishable
from a fresh :class:`KeyIndex` over the same store: the same entries in
the same order, the same buckets in the same order in every mask table
it carries, so join orders, probe order, ⊕ order and every work counter
stay as they were.  A reader of the parent must never see it change.

``DATALOGO_ENGINE`` restricts the engines to one (the CI matrix leg).
"""

from __future__ import annotations

import os
import random

import pytest

from repro import programs
from repro.core import VALID_ENGINES, Database, parse_program, solve
from repro.core.incremental import IncrementalInstance, Mutation, fingerprint
from repro.core.indexes import IndexManager, KeyIndex
from repro.core.instance import Instance
from repro.core.naive import NaiveEvaluator
from repro.core.seminaive import SemiNaiveEvaluator
from repro.semirings import THREE, TROP

ENGINES = [
    e
    for e in VALID_ENGINES
    if e != "auto" and os.environ.get("DATALOGO_ENGINE", e) == e
]

MASKS = ((0,), (1,), (0, 1))


def snapshot(index: KeyIndex):
    """Entries and every built mask's buckets, as plain ordered lists."""
    return (
        [(entry[0], entry[1]) for entry in index.entries()],
        {
            mask: {proj: [(e[0], e[1]) for e in bucket] for proj, bucket in table.items()}
            for mask, table in index._maps.items()
        },
    )


def assert_fresh(index: KeyIndex, store) -> None:
    """``index`` enumerates like a fresh index over ``store``, entries and
    the buckets of every mask table it carries alike."""
    fresh = KeyIndex(store)
    for mask in index._maps:
        fresh.mask_table(mask)
    assert snapshot(index) == snapshot(fresh)
    assert index.has_values == fresh.has_values


def assert_unchanged(index: KeyIndex, before) -> None:
    """``index`` still enumerates as it did at ``before``: entries and
    every mask table built then (solves may publish new tables)."""
    entries, tables = snapshot(index)
    assert entries == before[0]
    assert {mask: tables[mask] for mask in before[1]} == before[1]


class TestKeyIndexDerive:
    def test_random_batches_match_a_fresh_index(self):
        rng = random.Random(7)
        for _ in range(200):
            store = {
                (rng.randrange(5), rng.randrange(5)): rng.random()
                for _ in range(rng.randrange(30))
            }
            index = KeyIndex(store)
            for mask in MASKS[: rng.randrange(4)]:
                index.mask_table(mask)
            for _ in range(4):
                parent = snapshot(index)
                new = dict(store)
                removed = [k for k in store if rng.random() < 0.4]
                for key in removed:
                    del new[key]
                upserted = {}
                for _ in range(rng.randrange(10)):
                    key = (rng.randrange(5), rng.randrange(5))
                    new[key] = upserted[key] = rng.random()
                derived = index.derive(removed=removed, upserted=upserted)
                assert snapshot(index) == parent
                assert_fresh(derived, new)
                index, store = derived, new

    def test_removed_then_upserted_key_moves_to_the_end(self):
        index = KeyIndex({(1, 2): 1.0, (2, 3): 2.0, (3, 1): 3.0})
        index.mask_table((1,))
        derived = index.derive(
            removed=[(2, 3)], upserted={(2, 3): 4.0, (4, 2): 5.0}
        )
        assert_fresh(derived, {(1, 2): 1.0, (3, 1): 3.0, (2, 3): 4.0, (4, 2): 5.0})
        assert derived.has_values

    def test_empty_parent_gains_values(self):
        index = KeyIndex({})
        derived = index.derive(upserted={(1, 2): 1.0})
        assert_fresh(derived, {(1, 2): 1.0})

    def test_observations_start_empty_and_tables_are_shared(self):
        index = KeyIndex({(1, 2): 1.0, (2, 3): 2.0})
        view = index.view()
        for _ in range(5):
            view.probe_entries((0,), (1,))
        derived = index.derive(upserted={(5, 6): 3.0})
        assert derived._observed == {} and derived._distinct == {}
        # An untouched bucket is the parent's list, not a copy.
        assert derived.mask_table((0,))[(1,)] is index.mask_table((0,))[(1,)]

    def test_emptied_buckets_disappear(self):
        index = KeyIndex({(1, 2): 1.0, (2, 3): 2.0})
        index.mask_table((0,))
        derived = index.derive(removed=[(1, 2)])
        assert derived.distinct_count((0,)) == 1
        assert_fresh(derived, {(2, 3): 2.0})


class TestPin:
    """A pinned index serves the one store it was pinned for; any other
    store is indexed as if nothing were pinned."""

    def test_pin_serves_its_store_only(self):
        store = {(1, 2): 1.0, (2, 3): 2.0}
        other = {(1, 2): 5.0, (4, 4): 1.0}
        manager = IndexManager()
        manager.pin("T", KeyIndex(store), store)
        assert snapshot(manager.get("T", lambda: store, version=1))[0] == [
            ((1, 2), 1.0), ((2, 3), 2.0)
        ]
        assert_fresh(manager.get("T", lambda: other, version=1), other)
        # The build replaced the pin: the pinned store is indexed afresh.
        assert_fresh(manager.get("T", store, version=2), store)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pinned_evaluator_reads_each_instance(self, engine):
        program = parse_program("T(X, Y) :- E(X, Y) | T(X, Z) * T(Z, Y).")
        database = Database(pops=TROP, relations={"E": dict(EDGES)})
        fixpoint = solve(program, database, engine=engine).instance
        partial = Instance(TROP)
        for key, value in list(fixpoint.support("T").items())[::3]:
            partial.set("T", key, value)
        pinned = NaiveEvaluator(program, database, engine=engine)
        pinned.pin_indexes({"T": KeyIndex(fixpoint.support("T"))}, fixpoint)
        fresh = NaiveEvaluator(program, database, engine=engine)
        for instance in (fixpoint, partial, fixpoint):
            assert fingerprint(pinned.ico(instance)) == fingerprint(fresh.ico(instance))


# ----------------------------------------------------------------------
# The maintained indexes of IncrementalInstance
# ----------------------------------------------------------------------

#: A 12-node weighted graph; ``z`` has one edge, so deleting it shrinks
#: the active domain.
EDGES = {
    ("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "d"): 1.0, ("d", "e"): 3.0,
    ("e", "f"): 1.0, ("f", "g"): 2.0, ("g", "h"): 1.0, ("h", "i"): 2.0,
    ("i", "j"): 1.0, ("j", "k"): 1.0, ("a", "c"): 4.0, ("c", "e"): 5.0,
    ("e", "g"): 2.0, ("g", "i"): 6.0, ("b", "d"): 3.0, ("d", "f"): 1.0,
    ("f", "h"): 4.0, ("h", "j"): 2.0, ("k", "a"): 9.0, ("i", "z"): 1.0,
}


def ins(a, b, w):
    return Mutation("insert", "E", (a, b), w)


def dele(a, b):
    return Mutation("delete", "E", (a, b))


#: (label, batch).  ``abort`` batches fail inside the continuation.
SCRIPT = [
    ("warm-up insert+delete", [ins("c", "h", 2.0), dele("h", "i")]),
    ("single insert", [ins("b", "k", 1.0)]),
    ("single delete", [dele("e", "f")]),
    ("lower a weight", [ins("g", "h", 0.5)]),
    ("raise a weight", [ins("a", "b", 3.0)]),
    ("8-edge insert", [
        ins("a", "e", 2.0), ins("b", "f", 2.0), ins("c", "g", 2.0), ins("d", "h", 2.0),
        ins("e", "i", 2.0), ins("f", "j", 2.0), ins("g", "k", 2.0), ins("h", "a", 2.0),
    ]),
    ("8-edge delete and re-weigh", [
        dele("a", "e"), dele("b", "f"), dele("c", "g"), dele("d", "h"),
        ins("i", "j", 3.0), ins("j", "k", 0.5), ins("f", "g", 4.0), dele("k", "a"),
    ]),
    ("domain-shrinking delete", [dele("i", "z")]),
    ("its re-insert", [ins("i", "z", 1.0)]),
    ("abort", [dele("c", "d")]),
    ("after the abort", [dele("c", "d"), ins("k", "a", 1.0)]),
]

#: Per engine and script batch, ``(products, keys_examined)`` of the
#: apply: the counts the same batches had while every batch rebuilt its
#: indexes, except on the domain-shrinking delete and its re-insert.
#: There the old rules re-solved — (227, 351); interpreted (227, 340) —
#: and bootstrapped the full program — (208, 240); but APSP enumerates
#: no domain, so both now take the footprint-sized warm path.  The
#: aborted batch reports nothing.
_COMPILED = [
    (355, 936), (22, 29), (342, 931), (75, 111), (305, 865), (376, 508),
    (242, 934), (0, 37), (9, 19), None, (296, 756),
]
COUNTS = {
    "interpreted": [
        (355, 891), (22, 29), (342, 890), (75, 111), (305, 841), (376, 491),
        (242, 899), (0, 37), (9, 19), None, (296, 730),
    ],
    "compiled": _COMPILED,
    "codegen": _COMPILED,
    "batched": _COMPILED,
}


def resident(inc: IncrementalInstance):
    instance, indexes = inc._resident
    return indexes if instance is inc.instance else {}


def edb_index(database: Database, relation: str = "E"):
    """The database's index over ``relation`` if one was made (reading
    it through ``index()`` would make it)."""
    cell = database._cells.get(("edb", relation))
    return cell.index if cell is not None else None


@pytest.mark.parametrize("engine", ENGINES)
def test_script_keeps_derived_indexes_fresh(engine, monkeypatch):
    program = programs.apsp()
    inc = IncrementalInstance(program, Database(pops=TROP, relations={"E": dict(EDGES)}), engine=engine)
    counts = []
    for label, batch in SCRIPT:
        parent_db, parent_fp = inc.database, fingerprint(inc.instance)
        parent_edb = snapshot(edb_index(parent_db))
        parent_indexes = dict(resident(inc))
        parent_resident = {rel: snapshot(index) for rel, index in parent_indexes.items()}
        if label == "abort":
            def fail(self, *args, **kwargs):
                raise RuntimeError("synthetic failure inside the continuation")

            monkeypatch.setattr(SemiNaiveEvaluator, "run", fail)
            with pytest.raises(RuntimeError, match="synthetic"):
                inc.apply(batch)
            monkeypatch.undo()
            assert inc.database is parent_db
            assert fingerprint(inc.instance) == parent_fp
            counts.append(None)
        else:
            summary = inc.apply(batch)
            assert summary.path == "seminaive", label
            counts.append((summary.products, summary.keys_examined))
        # A reader holding the parent sees the parent.
        assert_unchanged(edb_index(parent_db), parent_edb)
        assert dict(parent_db.support("E")) == dict(parent_edb[0])
        for rel, index in parent_indexes.items():
            assert_unchanged(index, parent_resident[rel])
        if label == "abort":
            assert resident(inc) == parent_indexes
        # Every maintained index enumerates like a fresh one.
        assert_fresh(edb_index(inc.database), inc.database.support("E"))
        assert set(resident(inc)) == {"T"}
        for rel, index in resident(inc).items():
            assert_fresh(index, inc.instance.support(rel))
        cold = solve(program, inc.database, method="seminaive", engine=engine)
        assert fingerprint(inc.instance) == fingerprint(cold.instance), label
    assert counts == COUNTS[engine]


@pytest.mark.parametrize("engine", ENGINES)
def test_non_linear_continuation_after_a_pinned_bootstrap(engine):
    """``T(X, Z) * T(Z, Y)`` reads ``T`` twice: the bootstrap reads
    ``J⁻`` through the pinned resident index, the differential rounds
    read the growing instance through their own indexes."""
    program = parse_program("T(X, Y) :- E(X, Y) | T(X, Z) * T(Z, Y).")
    inc = IncrementalInstance(program, Database(pops=TROP, relations={"E": dict(EDGES)}), engine=engine)
    for label, batch in SCRIPT:
        if label == "abort":
            continue
        assert inc.apply(batch).path == "seminaive", label
        assert set(resident(inc)) == {"T"}
        for rel, index in resident(inc).items():
            assert_fresh(index, inc.instance.support(rel))
        cold = solve(program, inc.database, method="seminaive", engine=engine)
        assert fingerprint(inc.instance) == fingerprint(cold.instance)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_resolve_drops_the_resident_indexes(engine):
    program = programs.transitive_closure()
    edges = {("a", "b"): True, ("b", "c"): True, ("c", "a"): False, ("c", "d"): True}
    inc = IncrementalInstance(program, Database(pops=THREE, relations={"E": edges}), engine=engine)
    for batch in (
        [Mutation("insert", "E", ("d", "a"), True)],
        [Mutation("delete", "E", ("b", "c"))],
        [Mutation("insert", "E", ("a", "d"), False), Mutation("delete", "E", ("c", "a"))],
    ):
        assert inc.apply(batch).path == "resolve"
        assert resident(inc) == {}
        # THREE is not sparse: no guard reads an EDB store, none is indexed.
        assert edb_index(inc.database) is None
        cold = solve(program, inc.database, engine=engine)
        assert fingerprint(inc.instance) == fingerprint(cold.instance)


def test_warm_batches_build_no_index_over_the_stores(monkeypatch):
    """After one warm-up batch, a one-edge insert and a one-edge delete
    on a warm APSP instance build no index and no mask table over ``T``
    or ``E``: every index a batch makes is over its footprint."""
    inc = IncrementalInstance(programs.apsp(), Database(pops=TROP, relations={"E": dict(EDGES)}))
    inc.apply([ins("j", "z", 1.0), dele("i", "z")])
    built = []  # the key set of every index or mask table built
    real_table, real_extend = KeyIndex._table, KeyIndex.extend

    def table(self, mask):
        if mask not in self._maps and (
            self._published is None or mask not in self._published
        ):
            built.append({entry[0] for entry in self._entries})
        return real_table(self, mask)

    def extend(self, keys):
        added = real_extend(self, keys)
        built.append({entry[0] for entry in self._entries})
        return added

    monkeypatch.setattr(KeyIndex, "_table", table)
    monkeypatch.setattr(KeyIndex, "extend", extend)
    for batch in ([ins("i", "z", 2.0)], [dele("j", "z")]):
        stores = [
            set(source.support(rel))
            for source, rel in ((inc.database, "E"), (inc.instance, "T"))
        ]
        summary = inc.apply(batch)
        assert summary.path == "seminaive"
        stores += [set(inc.database.support("E")), set(inc.instance.support("T"))]
        assert not [keys for keys in built if keys in stores]
        assert summary.index_builds <= len(built)
        built.clear()


def test_mutate_reply_reports_index_builds():
    inc = IncrementalInstance(programs.apsp(), Database(pops=TROP, relations={"E": dict(EDGES)}))
    doc = inc.apply([ins("b", "k", 1.0)]).as_dict()
    assert isinstance(doc["index_builds"], int) and doc["index_builds"] >= 0


class TestActiveDomain:
    """Maintenance of a program that enumerates no active domain
    ignores the domain: a node's last edge deleted and re-inserted both
    take the warm path.  A program with an unguarded variable keeps
    re-solving when a constant leaves the domain."""

    @pytest.mark.parametrize("program", [programs.transitive_closure(), programs.apsp()])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_range_restricted(self, program, engine):
        inc = IncrementalInstance(program, Database(pops=TROP, relations={"E": dict(EDGES)}), engine=engine)
        for batch in ([dele("i", "z")], [ins("i", "z", 2.0)]):
            assert inc.apply(batch).path == "seminaive"
            cold = solve(program, inc.database, method="seminaive", engine=engine)
            assert fingerprint(inc.instance) == fingerprint(cold.instance)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unguarded_variable_resolves(self, engine):
        program = parse_program(
            "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y). U(X, Y) :- { T(X, Z) if Y != Z }."
        )
        inc = IncrementalInstance(program, Database(pops=TROP, relations={"E": dict(EDGES)}), engine=engine)
        assert inc.apply([dele("i", "z")]).path == "resolve"
        cold = solve(program, inc.database, method="seminaive", engine=engine)
        assert fingerprint(inc.instance) == fingerprint(cold.instance)
