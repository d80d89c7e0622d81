"""The body-application seam's contract (``repro.core.kernels.BodyKernels``).

Every engine hands the evaluators the same object: ``run(guards, state,
bucket) -> matched`` in accumulate mode, ``execute(guards, emit)`` in
emit mode.  One application of one body must therefore leave the same
bucket, report the same match count and do the same join work whichever
backend built the kernel; the interpreted adapter is the reference.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BodyKernels,
    Database,
    NaiveEvaluator,
    SemiNaiveEvaluator,
    VALID_ENGINES,
)
from repro.core.ast import And, BoolAtom, Compare, terms, var
from repro.core.indexes import IndexManager, JoinStats
from repro.core.rules import Program, RelAtom, Rule, SumProduct
from repro.core.valuations import (
    body_guards,
    late_idb_guards,
    no_idb_guards,
    refresh_guard_indexes,
)
from repro.semirings import BOOL, THREE, TROP
from repro.semirings.base import FunctionRegistry

ENGINES = tuple(e for e in VALID_ENGINES if e != "auto")

#: Per-backend bookkeeping, not join work.
BACKEND_COUNTERS = frozenset(
    {"codegen_kernels", "batch_joins", "batch_rows", "vector_filter_prunes"}
)

#: Where the interpreted pipeline counts differently by design: it
#: records adaptive probe observations the frozen plans have no use
#: for, and its filter-free fallback is one ``itertools.product`` that
#: counts complete candidates only.
INTERPRETED_COUNTERS = frozenset(
    {"probe_hits", "probe_misses", "fallback_extensions"}
)

EDGES = [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (0, 4)]


def _atom(rel, *names):
    return RelAtom(rel, terms(list(names)))


def _program():
    """``P`` is the path closure, written with a three-occurrence body
    so one Eq. 64 variant (``j = 1``) reads ``new``, ``δ`` and ``old``."""
    return Program(
        rules=[
            Rule(
                "P",
                terms(["X", "Y"]),
                (
                    SumProduct((_atom("E", "X", "Y"),)),
                    SumProduct(
                        (
                            _atom("P", "X", "Z"),
                            _atom("P", "Z", "W"),
                            _atom("P", "W", "Y"),
                        )
                    ),
                ),
            )
        ],
        edbs={"E": 2},
    )


def _database(space):
    if space == "three":
        # Not naturally ordered: no POPS guard is sound, every variable
        # enumerates the domain and heads are totalized.
        values = {e: int(e != (3, 1)) for e in EDGES}
        return Database(pops=THREE, relations={"E": values})
    if space == "bool":
        relations = {"E": {e: True for e in EDGES}}
    else:
        relations = {"E": {e: float(i % 3 + 1) for i, e in enumerate(EDGES)}}
    return Database(
        pops=BOOL if space == "bool" else TROP,
        relations=relations,
        bool_relations={"C": {(0,), (3,)}},
    )


def _without(counters: dict, ignored: frozenset) -> dict:
    return {k: v for k, v in counters.items() if k not in ignored}


def _apply(engine, space, body, head_args, state, emit_mode=False):
    """Build one kernel through the seam and apply it once to ``state``."""
    prog, db = _program(), _database(space)
    stats = JoinStats()
    indexes = IndexManager(stats=stats)
    kernels = BodyKernels(
        engine, "indexed", db, FunctionRegistry(), prog.idb_names(),
        sorted(db.active_domain() | prog.constants(), key=repr),
        stats=stats,
    )
    idb_guard = (
        no_idb_guards if emit_mode
        else late_idb_guards(lambda name: (lambda: state.support(name)))
    )
    guards = body_guards(
        body, db.pops, db, prog.idb_names(), idb_guard, indexes=indexes,
    )
    refresh_guard_indexes(guards, indexes, epoch=1)
    if emit_mode:
        seen = []
        kernels.build(guards, body).execute(
            guards, lambda valu, slots: seen.append((dict(valu), list(slots)))
        )
        return seen, len(seen), stats.snapshot()
    bucket = {}
    kernel = kernels.get("k", guards, body, head_args=head_args)
    matched = kernel.run(guards, state, bucket)
    work = stats.snapshot()
    # Reuse is a cache hit on the compiled engines only: the
    # interpreted pipeline keeps nothing between applications.
    assert kernels.get("k", guards, body, head_args=head_args) is kernel
    assert stats.kernel_cache_hits == (engine != "interpreted")
    return bucket, matched, work


def _midchain(space):
    """``J⁽¹⁾`` of the naïve chain: the edges, not yet closed."""
    trace = (
        NaiveEvaluator(_program(), _database(space), engine="interpreted")
        .run(capture_trace=True)
        .trace
    )
    assert trace[1].size()
    return trace[1]


def _variant_state(space):
    """The ``(δ, new, old)`` state after the first differential step."""
    states = []
    evaluator = SemiNaiveEvaluator(
        _program(), _database(space), engine="interpreted"
    )
    advance = evaluator.advance

    def recording(buckets, new):
        old = new.copy()
        delta, merged = advance(buckets, new)
        states.append((delta.copy(), merged.copy(), old))
        return delta, merged

    evaluator.advance = recording
    evaluator.run()
    delta, new, old = states[0]
    assert delta.size() and not new.equals(old)
    return delta, new, old


#: A threshold-rule body (Example 4.3's shape): the per-source ⊕ of an
#: IDB, gated by a Boolean store and a comparison.
THRESHOLD_BODY = SumProduct(
    (_atom("P", "X", "Y"),),
    condition=And(
        (BoolAtom("C", terms(["X"])), Compare("!=", var("X"), var("Y")))
    ),
)


def _case(engine, space, shape):
    rule = _program().rules[0]
    if shape == "plain":
        return _apply(
            engine, space, rule.bodies[1], rule.head_args, _midchain(space)
        )
    if shape == "threshold":
        return _apply(
            engine, space, THRESHOLD_BODY, terms(["X"]), _midchain(space)
        )
    if shape == "emit":
        return _apply(
            engine, space, rule.bodies[1], None, _midchain(space),
            emit_mode=True,
        )
    # The Eq. 64 variants, through their only caller.
    delta, new, old = _variant_state(space)
    evaluator = SemiNaiveEvaluator(_program(), _database(space), engine=engine)
    buckets = evaluator.contributions(delta, new, old)
    assert evaluator.stats.rule_applications == 3  # j = 0, 1, 2 all ran
    return buckets, evaluator.stats.valuations, evaluator.stats.join.snapshot()


CASES = [
    (space, shape)
    for space in ("trop", "bool", "three")
    for shape in ("plain", "variant", "threshold", "emit")
    # THREE has no ⊖ (no variants) and no Boolean store in this corpus.
    if not (space == "three" and shape in ("variant", "threshold"))
]


@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "interpreted"])
@pytest.mark.parametrize("space,shape", CASES)
def test_one_application_matches_the_interpreted_adapter(space, shape, engine):
    want, want_matched, want_work = _case("interpreted", space, shape)
    got, matched, work = _case(engine, space, shape)
    assert want_matched > 0
    assert got == want
    assert matched == want_matched
    ignored = BACKEND_COUNTERS | INTERPRETED_COUNTERS
    assert _without(work, ignored) == _without(want_work, ignored)
    if engine != "compiled":
        # The compiled backends agree on every join counter.
        closures = _case("compiled", space, shape)[2]
        assert _without(work, BACKEND_COUNTERS) == _without(
            closures, BACKEND_COUNTERS
        )
