"""The fused semi-naïve step (``SemiNaiveEvaluator.advance``).

``advance`` is the one implementation of Algorithm 3's iteration tail —
``δ = F(J) ⊖ J`` (Eq. 58, ``0`` dropped) and ``J ← J ⊕ δ`` in a single
pass per relation.  The two-pass form it replaced is kept here as the
reference, and every complete distributive dioid in the tree — including
``SetDioid``, where ``⊖`` is set difference and not "keep if smaller" —
is run through both on generated EDBs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs
from repro.core import Database, Instance, NaiveEvaluator, SemiNaiveEvaluator
from repro.core.guardrails import Budget, BudgetExceeded
from repro.semirings import (
    BOOL,
    BOTTLENECK,
    TROP,
    TROP_NAT,
    VITERBI,
    SetDioid,
)

ENGINES = ("interpreted", "compiled", "codegen", "batched")

#: name -> (dioid, edge weight 1..15 -> a valid non-0 value of it).
DIOIDS = {
    "trop": (TROP, float),
    "bool": (BOOL, lambda w: True),
    "bottleneck": (BOTTLENECK, float),
    "viterbi": (VITERBI, lambda w: w / 16),
    "trop_nat": (TROP_NAT, int),
    "sets": (
        SetDioid(range(4)),
        lambda w: frozenset(i for i in range(4) if w >> i & 1),
    ),
}

PROGRAMS = {
    "linear_tc": programs.transitive_closure,
    "quadratic_tc": programs.quadratic_transitive_closure,
    "graph_analytics": programs.graph_analytics,
}

#: Weighted edges over five nodes, cycles and self-loops included.
weighted_edges = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(1, 15),
    max_size=12,
)


def reference_step(evaluator, buckets, new):
    """The two-pass tail: ``δ = contributions ⊖ J``, then ``J ⊕= δ``
    (and, like the old ``_apply_delta``, the refresh of a live index
    over ``J``)."""
    pops = evaluator.pops
    delta = Instance(pops)
    for rel, entries in buckets.items():
        for key, value in entries.items():
            diff = pops.minus(value, new.get(rel, key))
            if not pops.eq(diff, pops.zero):
                delta.set(rel, key, diff)
    if delta.size() == 0:
        return delta, new
    merged = new if evaluator.program.is_linear() else new.copy()
    for rel in list(delta.relations()):
        index = evaluator.indexes.peek(("sn-new", rel))
        for key, d in delta.support(rel).items():
            merged.merge(rel, key, d)
            if index is not None:
                index.add(key, merged.get(rel, key))
    return delta, merged


def reference_chain(evaluator):
    """Algorithm 3 driven by hand over :func:`reference_step`."""
    new = evaluator.bootstrap()
    delta, old = new.copy(), Instance(evaluator.pops)
    deltas = []
    for step in range(1, 200):
        buckets = evaluator.contributions(delta, new, old)
        old = new
        delta, new = reference_step(evaluator, buckets, new)
        deltas.append(delta.as_dict())
        if delta.size() == 0:
            return deltas, new, step
    raise AssertionError("reference chain did not converge")


def recorded_run(evaluator):
    """``run()`` itself, with every ``advance`` result recorded; in
    non-linear mode also checks that the step left ``old`` alone."""
    deltas = []
    advance = evaluator.advance
    linear = evaluator.program.is_linear()

    def recording(buckets, new):
        before = new.as_dict()
        delta, merged = advance(buckets, new)
        if not linear:
            assert new.as_dict() == before, "advance mutated the old store"
            assert merged is not new or delta.size() == 0
        deltas.append(delta.as_dict())
        return delta, merged

    evaluator.advance = recording
    return deltas, evaluator.run()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("dioid", sorted(DIOIDS))
@settings(max_examples=6, deadline=None)
@given(edges=weighted_edges)
def test_fused_step_matches_two_pass_reference(dioid, program, engine, edges):
    pops, lift = DIOIDS[dioid]
    db = Database(
        pops=pops, relations={"E": {k: lift(w) for k, w in edges.items()}}
    )
    prog = PROGRAMS[program]()
    want_deltas, want_instance, want_steps = reference_chain(
        SemiNaiveEvaluator(prog, db, engine=engine)
    )
    deltas, result = recorded_run(SemiNaiveEvaluator(prog, db, engine=engine))
    if not deltas:  # empty bootstrap: run() returns before any step
        assert want_instance.size() == 0
        return
    assert deltas == want_deltas
    assert result.instance.as_dict() == want_instance.as_dict()
    assert result.steps == want_steps


class TripAt(Budget):
    """A wall budget that trips at its ``trip``-th poll, not at a time."""

    __slots__ = ("polls", "trip")

    def __init__(self, trip: int):
        super().__init__(max_wall_s=3600.0)
        self.polls, self.trip = 0, trip

    def poll(self) -> None:
        self.polls += 1
        if self.polls == self.trip:
            raise BudgetExceeded(resource="wall_s", limit=0.0, spent=0.0)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("program", ["linear_tc", "quadratic_tc"])
def test_wall_trip_partial_is_a_fully_applied_iterate(program, engine):
    """Wherever inside the run the wall budget trips, the partial is
    exactly the ``J⁽ᵗ⁾`` its step count names — never half-merged."""
    edges = {(i, i + 1): float(i % 3 + 1) for i in range(6)}
    edges[(6, 2)] = 1.0
    db = Database(pops=TROP, relations={"E": edges})
    prog = PROGRAMS[program]()
    chain = [
        j.as_dict()
        for j in SemiNaiveEvaluator(prog, db, engine=engine)
        .run(capture_trace=True)
        .trace
    ]
    trips = 0
    for trip in range(1, 500):
        budget = TripAt(trip)
        try:
            SemiNaiveEvaluator(prog, db, engine=engine, budget=budget).run()
        except BudgetExceeded as exc:
            trips += 1
            partial = exc.partial
            assert partial.instance.as_dict() == chain[partial.steps], trip
        else:
            break
    else:
        raise AssertionError("run never finished under the poll budget")
    assert trips > len(chain)  # tripped inside iterations, not only between


# ---------------------------------------------------------------------------
# Warm start: ``run(start=…)`` enters the one loop mid-chain.
# ---------------------------------------------------------------------------


def _cycle_db():
    edges = {(i, i + 1): float(i % 3 + 1) for i in range(6)}
    edges[(6, 2)] = 1.0
    return Database(pops=TROP, relations={"E": edges})


def _recorded_states(prog, db, engine):
    """A cold run plus a private copy of the ``(δ, new, old)`` state
    after the bootstrap and after every ``advance``."""
    evaluator = SemiNaiveEvaluator(prog, db, engine=engine)
    states = []
    bootstrap, advance = evaluator.bootstrap, evaluator.advance

    def recording_bootstrap():
        new = bootstrap()
        states.append((new.copy(), new.copy(), Instance(evaluator.pops)))
        return new

    def recording_advance(buckets, new):
        old = new.copy()
        delta, merged = advance(buckets, new)
        states.append((delta.copy(), merged.copy(), old))
        return delta, merged

    evaluator.bootstrap = recording_bootstrap
    evaluator.advance = recording_advance
    return evaluator.run(), states


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("program", ["linear_tc", "quadratic_tc"])
def test_seminaive_warm_start_from_every_state_of_a_cold_run(program, engine):
    prog, db = PROGRAMS[program](), _cycle_db()
    cold, states = _recorded_states(prog, db, engine)
    assert len(states) > 3
    # The last recorded state has δ = 0: the step that saw the fixpoint.
    for before, (delta, new, old) in enumerate(states[:-1]):
        warm = SemiNaiveEvaluator(prog, db, engine=engine).run(
            start=(delta.copy(), new.copy(), old.copy())
        )
        assert warm.instance.as_dict() == cold.instance.as_dict(), before
        assert before + warm.steps == cold.steps, before


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("program", ["linear_tc", "quadratic_tc"])
def test_naive_warm_start_from_every_iterate_of_a_cold_run(program, engine):
    prog, db = PROGRAMS[program](), _cycle_db()
    cold = NaiveEvaluator(prog, db, engine=engine).run(capture_trace=True)
    assert cold.steps > 3
    for t, iterate in enumerate(cold.trace[: cold.steps + 1]):
        warm = NaiveEvaluator(prog, db, engine=engine).run(start=iterate.copy())
        assert warm.instance.as_dict() == cold.instance.as_dict(), t
        assert t + warm.steps == cold.steps, t


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("method", ["naive", "seminaive"])
def test_budget_trip_in_a_warm_continuation_carries_a_sound_partial(
    method, engine
):
    """A trip inside ``run(start=…)`` is the loop's own structured
    refusal: the partial is a fully applied iterate ⊑ the fixpoint."""
    prog, db = PROGRAMS["quadratic_tc"](), _cycle_db()
    cold, states = _recorded_states(prog, db, engine)
    delta, new, old = states[1]
    fixpoint = cold.instance
    trips = 0
    for trip in range(1, 500):
        budget = TripAt(trip)
        try:
            if method == "naive":
                NaiveEvaluator(prog, db, engine=engine, budget=budget).run(
                    start=new.copy()
                )
            else:
                SemiNaiveEvaluator(prog, db, engine=engine, budget=budget).run(
                    start=(delta.copy(), new.copy(), old.copy())
                )
        except BudgetExceeded as exc:
            trips += 1
            partial = exc.partial.instance
            assert partial.size() >= new.size(), trip
            for rel in partial.relations():
                for key, value in partial.support(rel).items():
                    assert TROP.leq(value, fixpoint.get(rel, key)), (trip, key)
        else:
            break
    else:
        raise AssertionError("warm run never finished under the poll budget")
    assert trips > 2
