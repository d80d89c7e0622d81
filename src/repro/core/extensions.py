"""Extensions of Section 4.5: multiple value spaces in one program.

Example 4.3 (company control) interleaves two value spaces: ``CV`` and
``T`` are ``R+``-relations while ``C`` is Boolean, with the indicator
``[C(x, z)] ∈ R+`` mapping one space into the other and the threshold
``[T(x, y) > 0.5]`` mapping back.  Both mappings are monotone w.r.t. the
natural orders of ``R+`` and ``B``, so the joint least fixpoint exists
(the paper notes the grounded program is no longer polynomial, so the
Section-5 bounds do not apply syntactically — only Knaster–Tarski /
Kleene does).

POPS rules are ordinary datalog° rules whose conditions may mention
*Boolean IDBs*, and Boolean IDBs are defined by :class:`ThresholdRule`:
a sum-product over the POPS plus a monotone predicate on its value.
:class:`HybridEvaluator` computes the joint least fixpoint as an outer
loop over :func:`~repro.core.engine.solve`.  Each round publishes the
Boolean facts derived so far as frozen Boolean relations of a database
derived from the caller's (which is never written), and solves the POPS
program plus one auxiliary rule per threshold body; a threshold fact is
added when its auxiliary value passes the predicate.  The loop stops
when a round adds no fact.  By Bekić's lemma that pair is the least
joint fixpoint: every round's facts stay below the least fixpoint's
(the program and the predicates are monotone), and the last round's
instance and facts are a joint fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from ..fixpoint.iteration import DivergenceError
from ..semirings.base import FunctionRegistry, Value
from .ast import Term
from .engine import solve
from .instance import Database, Instance, Key
from .naive import EvaluationResult
from .rules import Program, Rule, SumProduct


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
        self.database = database
        self.functions = functions
        self.max_iterations = max_iterations
        self.plan = plan
        self.engine = engine
        self._facts: Dict[str, Set[Key]] = {
            rule.head_relation: set(
                database.bool_relations.get(rule.head_relation, ())
            )
            for rule in self.threshold_rules
        }
        #: One auxiliary IDB per threshold body, holding its value.
        self._aux = [
            f"__threshold_{idx}" for idx in range(len(self.threshold_rules))
        ]
        self._joint = Program(
            rules=list(program.rules)
            + [
                Rule(aux, rule.head_args, (rule.body,))
                for aux, rule in zip(self._aux, self.threshold_rules)
            ],
            edbs=dict(program.edbs),
            bool_edbs=dict(program.bool_edbs),
            idbs=dict(program.idbs),
        )

    def run(self) -> EvaluationResult:
        """Solve rounds until no threshold fact is added.

        The result is the last round's: its instance restricted to the
        program's IDBs, its ``steps`` and its ``stats`` plus
        ``stats["threshold_rounds"]``.
        """
        for rounds in range(1, self.max_iterations + 1):
            result = solve(
                self._joint,
                self.database.derive(
                    bool_relations={
                        rel: frozenset(keys) for rel, keys in self._facts.items()
                    }
                ),
                method="naive",
                functions=self.functions,
                max_iterations=self.max_iterations,
                plan=self.plan,
                engine=self.engine,
                preflight="off",
            )
            added = False
            for aux, rule in zip(self._aux, self.threshold_rules):
                facts = self._facts[rule.head_relation]
                for key, value in result.instance.support(aux).items():
                    if key not in facts and rule.predicate(value):
                        facts.add(key)
                        added = True
            if not added:
                instance = Instance(self.database.pops)
                for rel in self.program.idbs:
                    instance.update(rel, result.instance.support(rel))
                result.instance = instance
                result.stats["threshold_rounds"] = rounds
                return result
        raise DivergenceError(
            f"hybrid evaluation did not converge within "
            f"{self.max_iterations} rounds"
        )

    def bool_facts(self, relation: str) -> Set[Key]:
        """Return the derived Boolean facts of one threshold IDB."""
        return set(self._facts.get(relation, ()))
