"""Reusing one :class:`~repro.core.Database` is invisible.

A database is immutable and owns everything derived from its stores —
the active domain and one frozen index per relation — so repeated
solves over it skip that work.  Nothing else may change: five solves
on one database must return byte-identical instances with the same
work counters and the same join orders as one solve on a freshly built
equal database, and from the second solve on no EDB index is built.
A codegen demand query also keeps its kernels with the database (a
prepared query, :mod:`repro.core.demand`): its first solve plans the
same join orders as on a fresh database, and later ones plan none.
Covered per engine for full solves, demand (``query=``) solves and
``IncrementalInstance`` insert-then-delete, over TROP, BOOL and THREE.

``DATALOGO_ENGINE`` restricts the engines to one (the CI matrix leg).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.core import VALID_ENGINES, Database, parse_program, plan_ir, solve
from repro.core.indexes import KeyIndex
from repro.core.incremental import IncrementalInstance, Mutation, fingerprint
from repro.semirings import BOOL, THREE, TROP

ENGINES = [
    e
    for e in VALID_ENGINES
    if e != "auto" and os.environ.get("DATALOGO_ENGINE", e) == e
]

#: Work counters that must not move when a database is reused.
COUNTERS = ("keys_examined", "probes", "rule_applications", "products", "iterations")

PROGRAM = parse_program(
    "bool Ok/1.\n"
    "T(X, Y) :- E(X, Y) | { T(X, Z) * E(Z, Y) if Ok(Z) }.\n"
    "Q(X, Y) :- T(X, Z) * T(Z, Y).\n"
)

EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("d", "b"), ("c", "e")]
OK = [("a",), ("b",), ("c",), ("d",)]

SPACES = {
    "trop": (TROP, lambda i: float(1 + i % 3), 2.5),
    "bool": (BOOL, lambda i: True, True),
    "three": (THREE, lambda i: i % 2 == 0, True),
}


def make_db(space: str) -> Database:
    pops, weight, _ = SPACES[space]
    return Database(
        pops=pops,
        relations={"E": {e: weight(i) for i, e in enumerate(EDGES)}},
        bool_relations={"Ok": set(OK)},
    )


def method_of(space: str) -> str:
    return "seminaive" if SPACES[space][0].caps.has_minus else "naive"


@pytest.fixture()
def plans(monkeypatch):
    """Every join order planned, as (guard position, probe mask) steps."""
    seen = []
    build = plan_ir.build_body_plan

    def recording(*args, **kwargs):
        ir, indexes = build(*args, **kwargs)
        seen.append(tuple((step.guard_pos, step.mask) for step in ir.steps))
        return ir, indexes

    monkeypatch.setattr(plan_ir, "build_body_plan", recording)
    return seen


def published_tables(db: Database) -> int:
    """Mask tables built into the database's own indexes."""
    return sum(
        len(cell.index._maps) for cell in db._cells.values() if cell.index
    )


def edb_builds(db: Database) -> int:
    """Indexes the database owns plus their published mask tables —
    what any EDB index build adds to."""
    return published_tables(db) + sum(1 for c in db._cells.values() if c.index)


def observe(run, db: Database, plans):
    """Run once; return what reuse must leave unchanged."""
    del plans[:]
    out = run(db)
    return out, list(plans)


def full_solve(engine, space):
    def run(db):
        result = solve(PROGRAM, db, method=method_of(space), engine=engine)
        return fingerprint(result.instance), {k: result.stats[k] for k in COUNTERS}

    return run


def demand_solve(engine, space):
    def run(db):
        result = solve(
            PROGRAM, db, method=method_of(space), engine=engine,
            query=("T", ("a", None)),
        )
        counters = {k: result.stats[k] for k in COUNTERS}
        counters["demand_fallbacks"] = result.stats["demand_fallbacks"]
        return fingerprint(result.instance), counters

    return run


def incremental(engine, space):
    value = SPACES[space][2]

    def run(db):
        inc = IncrementalInstance(PROGRAM, db, engine=engine)
        states = [fingerprint(inc.instance)]
        for m in (
            Mutation("insert", "E", ("e", "a"), value),
            Mutation("delete", "E", ("a", "b")),
        ):
            summary = inc.apply([m])
            states.append((summary.path, fingerprint(inc.instance)))
        return states, dict(inc.stats)

    return run


@pytest.mark.parametrize("space", sorted(SPACES))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", [full_solve, demand_solve, incremental])
def test_reuse_matches_a_fresh_database(mode, engine, space, plans):
    run = mode(engine, space)
    expected = observe(run, make_db(space), plans)
    db = make_db(space)
    assert observe(run, db, plans) == expected
    built = edb_builds(db)
    prepared = mode is demand_solve and engine == "codegen"
    if prepared and expected[0][1]["demand_fallbacks"] == 0:
        expected = (expected[0], [])  # the prepared query's kernels are re-bound
    for _ in range(4):
        assert observe(run, db, plans) == expected
        assert edb_builds(db) == built  # no EDB index built again
    if mode is full_solve:
        assert built > 0  # the first solve did index the EDB


@pytest.mark.parametrize("space", sorted(SPACES))
def test_second_solve_counts_no_edb_index_build(space):
    db = make_db(space)
    first = solve(PROGRAM, db, method=method_of(space)).stats
    second = solve(PROGRAM, db, method=method_of(space)).stats
    assert first == solve(PROGRAM, make_db(space), method=method_of(space)).stats
    assert edb_builds(db) > 0
    assert second.pop("index_builds") == first.pop("index_builds") - (
        published_tables(db)
    )
    assert second == first


def test_views_estimate_like_a_fresh_index():
    """A solve's view sees tables other solves published only as work
    saved, never in its estimates: above the exact-count limit a built
    table changes :meth:`KeyIndex.estimate`, so the join order would
    otherwise depend on which solves ran before."""
    keys = {(i % 50, i): 1.0 for i in range(2000)}
    shared = Database(pops=TROP, relations={"E": keys}).index("E")
    first = shared.view()
    first.mask_table((0,))
    second = shared.view()
    assert second.estimate((0,)) == KeyIndex(keys).estimate((0,))
    assert second.mask_table((0,)) is first.mask_table((0,))
    with pytest.raises(TypeError):
        second.add((99, 99), 1.0)


def test_database_is_read_only():
    db = make_db("trop")
    with pytest.raises(TypeError):
        db.relations["E"] = {}
    with pytest.raises(TypeError):
        db.relations["E"][("a", "z")] = 1.0
    with pytest.raises(TypeError):
        db.bool_relations["Ok"] = set()
    assert isinstance(db.bool_relations["Ok"], frozenset)
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.relations = {}


def test_solves_leave_the_database_as_built():
    db = make_db("trop")
    for engine in ENGINES:
        solve(PROGRAM, db, method="seminaive", engine=engine)
        solve(PROGRAM, db, method="seminaive", engine=engine,
              query=("T", ("a", None)))
        IncrementalInstance(PROGRAM, db, engine=engine).apply(
            [Mutation("delete", "E", ("a", "b"))]
        )
    assert db == make_db("trop")


def test_derive_grows_the_domain_of_added_relations():
    db = make_db("trop")
    ordered = db.enumeration_domain()
    same = db.derive(relations={"S": {("a",): 1.0}})
    assert same.active_domain() == db.active_domain()
    assert same.enumeration_domain() == ordered
    grown = db.derive(relations={"S": {("zz",): 1.0}}, bool_relations={"B": {("yy",)}})
    assert grown.active_domain() == db.active_domain() | {"zz", "yy"}
    assert grown.enumeration_domain() == sorted(ordered + ["zz", "yy"], key=repr)
    # Replacing a relation can drop constants: the domain is recomputed.
    replaced = db.derive(relations={"E": {("a", "b"): 1.0}})
    assert replaced.active_domain() == {"a", "b", "c", "d"}


def test_derived_databases_keep_no_reference_to_their_parent():
    import gc
    import weakref

    db = make_db("trop")
    domain, ordered = db.active_domain(), db.enumeration_domain()
    grown = db.derive(relations={"S": {("zz",): 1.0}})
    # Replacing a relation the last derive added keeps the lazy domain.
    regrown = grown.derive(relations={"S": {("a",): 1.0}})
    ref = weakref.ref(db)
    del db
    gc.collect()
    assert ref() is None
    assert grown.active_domain() == domain | {"zz"}
    assert regrown.active_domain() == domain
    assert regrown.enumeration_domain() == ordered
