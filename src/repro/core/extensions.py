"""Extensions of Section 4.5: multiple value spaces in one program.

Example 4.3 (company control) interleaves two value spaces: ``CV`` and
``T`` are ``R+``-relations while ``C`` is Boolean, with the indicator
``[C(x, z)] ∈ R+`` mapping one space into the other and the threshold
``[T(x, y) > 0.5]`` mapping back.  Both mappings are monotone w.r.t. the
natural orders of ``R+`` and ``B``, so the joint least fixpoint exists
(the paper notes the grounded program is no longer polynomial, so the
Section-5 bounds do not apply syntactically — only Knaster–Tarski /
Kleene does).

:class:`HybridEvaluator` runs the joint naïve iteration: POPS rules are
ordinary datalog° rules whose conditions may mention *Boolean IDBs*
(resolved against the growing Boolean store), and Boolean IDBs are
defined by :class:`ThresholdRule`: a sum-product over the POPS plus a
monotone predicate on its value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..fixpoint.iteration import DivergenceError
from ..semirings.base import FunctionRegistry, Value
from .ast import Term
from .instance import Database, Instance, Key
from .naive import EvaluationResult, NaiveEvaluator
from .rules import Program, SumProduct
from .valuations import body_guards, is_indexed_plan, refresh_guard_indexes


@dataclass(frozen=True)
class ThresholdRule:
    """A Boolean IDB defined by thresholding a POPS sum-product.

    ``head(t̄)`` becomes true when ``predicate(Σ body)`` holds, e.g.
    Example 4.3's ``C(x, y) :- [T(x, y) > 0.5]`` with
    ``predicate = lambda v: v > 0.5``.  The predicate must be monotone
    w.r.t. the POPS order for the least-fixpoint semantics to apply.
    """

    head_relation: str
    head_args: Tuple[Term, ...]
    body: SumProduct
    predicate: Callable[[Value], bool]


class HybridEvaluator:
    """Joint fixpoint of POPS rules and Boolean threshold rules."""

    def __init__(
        self,
        program: Program,
        threshold_rules: Sequence[ThresholdRule],
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        max_iterations: int = 10_000,
        plan: str = "indexed",
        engine: str = "auto",
    ):
        self.program = program
        self.threshold_rules = list(threshold_rules)
        self.pops = database.pops
        self.max_iterations = max_iterations
        self.plan = plan
        self.engine = engine
        self.bool_idb_names = {r.head_relation for r in self.threshold_rules}
        # Boolean IDB facts live in this evaluator's own growing stores,
        # published as Boolean relations of a database derived from the
        # caller's (which is never written), so conditions and
        # indicators see them transparently.  The naïve evaluator
        # re-indexes growing stores by size, so facts added between
        # iterations are picked up.
        self._facts: Dict[str, Set[Key]] = {
            name: set(database.bool_relations.get(name, ()))
            for name in self.bool_idb_names
        }
        self.database = database.derive(
            bool_relations=self._facts, growing=self._facts
        )
        self._base = NaiveEvaluator(
            program,
            self.database,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            engine=engine,
        )
        self.compiled = self._base.compiled
        # Compiled-engine state: cached per-threshold-rule guards
        # (late-bound through the base evaluator's current instance,
        # so caching them is sound; their indexes are refreshed per
        # iteration against the base's change counters instead of
        # being rebuilt from scratch).  Threshold kernels live in the
        # base evaluator's kernel cache.
        self._threshold_guards: Dict[int, list] = {}

    # ------------------------------------------------------------------
    def _rule_guards(self, idx: int, rule: ThresholdRule) -> list:
        """Build (or reuse) the guard list of one threshold body.

        Guards read the base evaluator's *current* instance through the
        late-bound supplier, so the list itself is iteration-invariant;
        the compiled path caches it and merely refreshes the indexes —
        previously every iteration rebuilt guards *and* ephemeral
        indexes for relations that had not changed at all.
        """
        if self.compiled:
            guards = self._threshold_guards.get(idx)
            if guards is not None:
                return guards
        guards = body_guards(
            rule.body,
            self.pops,
            self.database,
            self.program.idb_names(),
            self._base._idb_supplier,
            indexes=(
                self._base.indexes if is_indexed_plan(self.plan) else None
            ),
        )
        if self.compiled:
            self._threshold_guards[idx] = guards
        return guards

    def _threshold_step(self, idb: Instance) -> Set[Tuple[str, Key]]:
        """Evaluate every threshold rule, returning new Boolean facts."""
        new_facts: Set[Tuple[str, Key]] = set()
        base = self._base
        if self.compiled:
            # Threshold bodies read the *freshly derived* instance, one
            # step ahead of the base ICO's input: advance the change
            # counters so the shared IDB guard indexes refresh to it
            # (and so the base's next ICO sees these stores as already
            # seen, keeping its contribution cache exact).
            base._bump_changed_relations(idb)
        for idx, rule in enumerate(self.threshold_rules):
            guards = self._rule_guards(idx, rule)
            acc: Dict[Key, Value] = {}
            base._current = idb
            if self.compiled:
                refresh_guard_indexes(
                    guards,
                    base.indexes,
                    base._epoch,
                    versions=base._rel_versions,
                    bool_versions=base._bool_versions,
                    stats=base.stats.join,
                )
            # The match count is dropped: threshold bodies count
            # neither valuations nor products, on any engine.
            base._kernels.get(
                ("threshold", idx), guards, rule.body,
                head_args=rule.head_args,
                label=f"threshold.{rule.head_relation}.{idx}",
            ).run(guards, idb, acc)
            store = self._facts[rule.head_relation]
            for key, value in acc.items():
                if key not in store and rule.predicate(value):
                    new_facts.add((rule.head_relation, key))
        return new_facts

    def run(self, capture_trace: bool = False) -> EvaluationResult:
        """Iterate the joint ICO until both stores are stationary."""
        current = Instance(self.pops)
        trace: List[Instance] = [current.copy()] if capture_trace else []
        for step in range(self.max_iterations):
            nxt = self._base.ico(current)
            new_facts = self._threshold_step(nxt)
            for rel, key in new_facts:
                self._facts[rel].add(key)
            if not new_facts and nxt.equals(current):
                return EvaluationResult(
                    instance=current,
                    steps=step,
                    trace=trace,
                    stats=self._base.stats.snapshot(),
                )
            if capture_trace:
                trace.append(nxt.copy())
            current = nxt
        raise DivergenceError(
            f"hybrid evaluation did not converge within "
            f"{self.max_iterations} iterations"
        )

    def bool_facts(self, relation: str) -> Set[Key]:
        """Return the derived Boolean facts of one threshold IDB."""
        return set(self.database.bool_relations.get(relation, ()))
