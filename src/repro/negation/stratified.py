"""Stratified datalog° with negation-as-failure (Section 7 discussion).

Stratified negation — "the simplest [extension], the most commonly
used in practice" (§7) — evaluates a program in layers: a stratum may
*negate* only relations fully computed by earlier strata.  This module
implements it on top of the datalog° engines:

* a stratum is an ordinary :class:`~repro.core.rules.Program`;
* after a stratum reaches its least fixpoint, each of its IDBs is
  *published*: its values become a POPS EDB for later strata, and its
  support becomes a Boolean relation of the same name, so later strata
  can guard with ``BoolAtom("T", …)`` and — crucially — with
  ``Not(BoolAtom("T", …))``: negation as failure against a completed
  relation.

For stratifiable programs the result coincides with the well-founded
model (every atom comes out true or false, never undefined), which the
tests verify against :mod:`repro.negation.wellfounded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..core.ast import And, BoolAtom, Condition, Not, Or
from ..core.instance import Database, Instance
from ..core.naive import EvaluationResult, naive_fixpoint
from ..core.rules import Program
from ..semirings.base import FunctionRegistry


class StratificationError(ValueError):
    """Raised when a stratum negates a relation not yet published."""


def _negated_relations(cond: Condition) -> Set[str]:
    """Relations occurring under a negation in a condition."""
    if isinstance(cond, Not):
        return {a.relation for a in _all_bool_atoms(cond.inner)}
    if isinstance(cond, (And, Or)):
        out: Set[str] = set()
        for part in cond.parts:
            out |= _negated_relations(part)
        return out
    return set()


def _all_bool_atoms(cond: Condition) -> List[BoolAtom]:
    if isinstance(cond, BoolAtom):
        return [cond]
    if isinstance(cond, (And, Or)):
        out: List[BoolAtom] = []
        for part in cond.parts:
            out.extend(_all_bool_atoms(part))
        return out
    if isinstance(cond, Not):
        return _all_bool_atoms(cond.inner)
    return []


def validate_strata(strata: Sequence[Program], database: Database) -> None:
    """Check the stratification condition: negation only on published
    relations (EDBs or IDBs of strictly earlier strata)."""
    published: Set[str] = set(database.bool_relations)
    for level, program in enumerate(strata):
        own_idbs = set(program.idb_names())
        for rule in program.rules:
            for body in rule.bodies:
                negated = _negated_relations(body.condition)
                illegal = negated & own_idbs
                if illegal:
                    raise StratificationError(
                        f"stratum {level} negates its own IDB(s) "
                        f"{sorted(illegal)}; move them to an earlier stratum"
                    )
                unknown = negated - published - set(database.relations)
                if unknown:
                    raise StratificationError(
                        f"stratum {level} negates unpublished relation(s) "
                        f"{sorted(unknown)}"
                    )
        published |= own_idbs


@dataclass
class StratifiedResult:
    """Combined result of a stratified run."""

    instance: Instance
    per_stratum: List[EvaluationResult]


def solve_stratified(
    strata: Sequence[Program],
    database: Database,
    functions: Optional[FunctionRegistry] = None,
    max_iterations: int = 100_000,
) -> StratifiedResult:
    """Evaluate strata in order, publishing each stratum's IDBs.

    Published relations accumulate in databases derived from the input
    one, which is never written.
    """
    validate_strata(strata, database)
    working = database
    combined = Instance(database.pops)
    results: List[EvaluationResult] = []
    for program in strata:
        result = naive_fixpoint(
            program,
            working,
            functions=functions,
            max_iterations=max_iterations,
        )
        results.append(result)
        published = {
            rel: dict(result.instance.support(rel)) for rel in program.idbs
        }
        working = working.derive(
            relations=published,
            bool_relations={
                rel: frozenset(support) for rel, support in published.items()
            },
        )
        for rel, support in published.items():
            for key, value in support.items():
                combined.set(rel, key, value)
    return StratifiedResult(instance=combined, per_stratum=results)
