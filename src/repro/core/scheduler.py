"""SCC-stratified fixpoint scheduling (the stratum scheduler).

The paper defines the ICO fixpoint over the *whole* program, and the
monolithic engines run it literally: every iteration re-applies every
rule and refreshes indexes for every relation, even when most
predicates are not mutually recursive.  This module evaluates the
program one **stratum** at a time instead:

1. **Condense** the predicate dependency graph into its SCC DAG
   (:func:`repro.analysis.graphs.condensation`) and order the
   components topologically.
2. **Evaluate per component.**  Every component sees the relations of
   earlier components as **frozen**: their fixpoint values are
   published as ordinary POPS EDB relations of a database derived
   (:meth:`~repro.core.instance.Database.derive`) from the last one,
   so their (value-carrying) indexes are built once and then probed
   read-only across *every* iteration of every later stratum — one
   shared :class:`~repro.core.indexes.IndexManager` carries the
   solve's views of them across strata.  Non-recursive components
   (singleton SCCs without a self-loop) skip the fixpoint loop
   entirely: one ICO application from ``⊥`` *is* their least
   fixpoint, so their rules apply exactly once per run instead of
   once per global iteration.  Recursive
   components run the ordinary naïve or semi-naïve fixpoint of their
   sub-program.
3. **Merge** the per-stratum instances into the final least fixpoint.

Soundness: the condensation makes the grounded system block-triangular
— component ``k``'s ICO reads only components ``≤ k`` — so Kleene
iteration may be performed block-by-block, each block iterated to its
least fixpoint with the earlier blocks held at theirs.  This is the
same argument the paper applies to stratified multi-space programs
(Section 4.5), and it is what makes the scheduler a stratifier for
negation (Section 7): a body may read an IDB in a *condition* —
``{ D(X) | Node(X) ∧ ¬D(X) }`` — because that read is a dependency
edge of the condensation, and freezing the IDB's component also
publishes its support as a Boolean relation of the same name (a key
view of the frozen store, nothing copied).  A condition that reads an
IDB of its own component has no finished fixpoint to read and raises
:class:`StratificationError`.  Every stratum evaluator is pinned to
the **whole program's** domain (active domain plus all constants), so head
totalization over ``GA(τ, D₀)`` and fallback enumeration behave
byte-for-byte like the monolithic run; ``schedule="monolithic"``
(:func:`repro.core.engine.solve`) keeps the seed whole-program
fixpoint as the differential baseline.

A pleasant corollary: under SCC scheduling the semi-naïve engine
accepts programs whose *lower strata* appear under interpreted
functions or repeated occurrences — frozen relations are constants to
the differential rule, so affinity is only required of a body in its
own component's relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..semirings.base import FunctionRegistry
from .guardrails import Budget, BudgetExceeded, PartialResult
from .indexes import IndexManager
from .instance import Database, Instance
from .kernels import KernelScope
from .naive import EvalStats, EvaluationResult, NaiveEvaluator
from .rules import Program, Rule
from .seminaive import SemiNaiveEvaluator
from .valuations import is_indexed_plan

#: The one source of truth for ``schedule=`` choices — consumed by
#: ``solve()`` validation, the CLI's argparse choices, and the CI
#: engine-matrix docs (``VALID_ENGINES`` lives in :mod:`.kernels`).
VALID_SCHEDULES: Tuple[str, ...] = ("auto", "scc", "monolithic")


class StratificationError(ValueError):
    """Raised when a condition reads an IDB of its own component."""


def check_stratified(
    program: Program, components: Any = None
) -> FrozenSet[str]:
    """Return the IDBs the program reads in conditions, after checking
    that each sits in a strictly lower component than every body that
    reads it (``components`` is the program's condensation, computed
    here when not given)."""
    reads = program.condition_idbs()
    if not reads:
        return reads
    if components is None:
        from ..analysis.graphs import condensation  # local: avoids a cycle

        components = condensation(program)
    component_of = {
        rel: comp for comp in components.components for rel in comp
    }
    for rule in program.rules:
        own = component_of[rule.head_relation]
        for body in rule.bodies:
            for atom, negated in body.bool_reads():
                if component_of.get(atom.relation) == own:
                    raise StratificationError(
                        f"{rule.head_relation} "
                        f"{'negates' if negated else 'reads'} "
                        f"{atom.relation} in a condition within their own "
                        f"component {list(own)}; a condition may only "
                        "read IDBs of strictly lower strata"
                    )
    return reads


@dataclass
class StratumReport:
    """Work accounting for one scheduled component.

    ``rule_applications`` is the scheduler's headline number: for a
    non-recursive stratum it equals the stratum's body count (every
    rule applies exactly once); for a recursive stratum it grows with
    the component's own fixpoint depth instead of the global one.
    """

    relations: Tuple[str, ...]
    recursive: bool
    steps: int
    iterations: int
    rule_applications: int
    valuations: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "relations": list(self.relations),
            "recursive": self.recursive,
            "steps": self.steps,
            "iterations": self.iterations,
            "rule_applications": self.rule_applications,
            "valuations": self.valuations,
        }


def _sub_program(program: Program, component: Tuple[str, ...]) -> Program:
    """Restrict a program to one component's rules.

    Only the component's relations stay IDBs; relations of earlier
    components referenced by the bodies are auto-registered as POPS
    EDBs by :class:`~repro.core.rules.Program` validation — exactly the
    frozen reading, since the scheduler publishes their fixpoints into
    the working database before this sub-program runs.  Rule-less IDBs
    (declared but never defined) keep their declaration so head
    totalization covers them.
    """
    rules: List[Rule] = [
        rule for rule in program.rules if rule.head_relation in component
    ]
    return Program(
        rules=rules,
        edbs=dict(program.edbs),
        bool_edbs=dict(program.bool_edbs),
        idbs={rel: program.idbs[rel] for rel in component},
    )


def _evaluate_component(
    sub: Program,
    working: Database,
    recursive: bool,
    method: str,
    functions: Optional[FunctionRegistry],
    max_iterations: int,
    plan: str,
    domain: List[Any],
    stats: EvalStats,
    indexes: Optional[IndexManager],
    engine: str,
    workers: int = 1,
    budget: Optional[Budget] = None,
    kernel_scope: Optional[KernelScope] = None,
) -> Tuple[Instance, int]:
    """Run one component to its least fixpoint against frozen inputs."""
    pops = working.pops
    if not recursive:
        # One ICO application from ⊥ is the least fixpoint: the
        # component's bodies read only frozen/EDB stores, so the
        # operator is constant — no loop, no convergence check.
        evaluator = NaiveEvaluator(
            sub,
            working,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            domain=domain,
            stats=stats,
            indexes=indexes,
            engine=engine,
            budget=budget,
            kernel_scope=kernel_scope,
        )
        stats.iterations += 1
        instance = evaluator.ico(Instance(pops))
        if budget is not None:
            budget.charge_size(instance.size())
        return instance, (0 if instance.size() == 0 else 1)
    if method == "seminaive":
        if workers > 1:
            # Only recursive semi-naïve strata have a per-iteration
            # delta to shard; everything else stays single-process.
            from .sharded import ShardedSemiNaiveEvaluator

            result = ShardedSemiNaiveEvaluator(
                sub,
                working,
                functions=functions,
                max_iterations=max_iterations,
                plan=plan,
                domain=domain,
                stats=stats,
                indexes=indexes,
                engine=engine,
                workers=workers,
                budget=budget,
            ).run()
            return result.instance, result.steps
        result = SemiNaiveEvaluator(
            sub,
            working,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            domain=domain,
            stats=stats,
            indexes=indexes,
            engine=engine,
            budget=budget,
            kernel_scope=kernel_scope,
        ).run()
    else:
        result = NaiveEvaluator(
            sub,
            working,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            domain=domain,
            stats=stats,
            indexes=indexes,
            engine=engine,
            budget=budget,
            kernel_scope=kernel_scope,
        ).run()
    return result.instance, result.steps


def _restrict_to_roots(components: Any, roots: Tuple[str, ...]) -> Any:
    """Prune a condensation to the components reachable *from* roots.

    "Reachable" runs against the dependency direction: keep every
    component containing a root relation plus, transitively, every
    component it reads (``dependencies``).  Indices are remapped so the
    filtered :class:`~repro.analysis.graphs.Condensation` stays valid.
    """
    from ..analysis.graphs import Condensation  # local: avoids a cycle

    rootset = set(roots)
    needed: set = set()
    stack = [
        i
        for i, comp in enumerate(components.components)
        if rootset.intersection(comp)
    ]
    while stack:
        i = stack.pop()
        if i in needed:
            continue
        needed.add(i)
        stack.extend(components.dependencies[i])
    keep = sorted(needed)
    remap = {old: new for new, old in enumerate(keep)}
    return Condensation(
        components=[components.components[i] for i in keep],
        recursive=[components.recursive[i] for i in keep],
        dependencies=[
            frozenset(remap[j] for j in components.dependencies[i])
            for i in keep
        ],
    )


@dataclass(frozen=True)
class Strata:
    """A program's schedule: its (possibly pruned) SCC condensation,
    the IDBs its conditions read, and one sub-program per component."""

    components: Any
    condition_reads: FrozenSet[str]
    programs: Tuple[Program, ...]


def stratify(
    program: Program, roots: Optional[Tuple[str, ...]] = None
) -> Strata:
    """Condense, check and split ``program`` for :func:`scheduled_fixpoint`.

    ``roots`` names goal relations: the condensation is then pruned to
    the components they live in plus their transitive dependencies, so
    strata the goals cannot read are never evaluated and the relations
    outside every surviving component stay empty (the demand path's
    adornment reachability: :mod:`repro.core.demand` passes its query
    relation).
    """
    from ..analysis.graphs import condensation  # local: avoids a cycle

    components = condensation(program)
    condition_reads = check_stratified(program, components)
    if roots is not None:
        components = _restrict_to_roots(components, roots)
    return Strata(
        components=components,
        condition_reads=condition_reads,
        programs=tuple(
            _sub_program(program, component)
            for component, _recursive in components
        ),
    )


def scheduled_fixpoint(
    program: Program,
    database: Database,
    method: str = "naive",
    functions: Optional[FunctionRegistry] = None,
    max_iterations: int = 100_000,
    plan: str = "indexed",
    engine: str = "auto",
    workers: int = 1,
    budget: Optional[Budget] = None,
    strata: Optional[Strata] = None,
    kernel_scopes: Optional[Callable[[int], Optional[KernelScope]]] = None,
) -> EvaluationResult:
    """Evaluate a program stratum-by-stratum over its SCC condensation.

    Args:
        program: The datalog° program.
        database: The EDB instance (frozen strata accumulate in
            databases derived from it).
        method: Fixpoint engine for recursive components — ``"naive"``
            or ``"seminaive"``.  Non-recursive components always
            evaluate with a single ICO application.
        functions: Interpreted value-space functions.
        max_iterations: Per-component divergence guard.
        plan: Join strategy, as in the monolithic engines.
        engine: Join/evaluation pipeline for the per-stratum evaluators
            (``"auto"`` → generated kernels on indexed plans).
        workers: Shard count for recursive semi-naïve strata — ``> 1``
            runs each such stratum's fixpoint on the sharded
            multi-process engine (:mod:`repro.core.sharded`) with its
            delta hash-partitioned across persistent workers.
        budget: Optional solve-time :class:`~repro.core.guardrails.Budget`.
            Each stratum evaluator charges its in-flight instance size
            against it; completed strata are committed so the tuple
            budget tracks the union, not the per-stratum maximum.  On
            :class:`~repro.core.guardrails.BudgetExceeded` the partial
            result is enriched with every already-frozen stratum plus
            the interrupted stratum's own partial prefix.
        strata: The schedule to run, as :func:`stratify` made it
            (default: ``stratify(program)``).  The demand path passes
            the strata it prepared with its query relation as the root,
            so strata the query cannot read are never evaluated.
        kernel_scopes: Maps a stratum's position in ``strata`` to the
            :class:`~repro.core.kernels.KernelScope` its single-process
            evaluators share kernels through (``None``: none; the
            demand path's prepared queries, see
            :mod:`repro.core.demand`).

    Returns:
        An :class:`~repro.core.naive.EvaluationResult` whose ``steps``
        is the deepest component's step count, whose ``stats`` carry
        the run's total counters plus ``strata`` /
        ``recursive_strata``, and whose ``strata`` attribute holds one
        :class:`StratumReport` per component in schedule order.
    """
    if method not in ("naive", "seminaive"):
        raise ValueError(
            f"scheduled evaluation supports 'naive'/'seminaive', "
            f"not {method!r}"
        )
    if workers > 1 and method != "seminaive":
        raise ValueError(
            "engine_workers > 1 shards the semi-naïve delta; "
            f"method={method!r} has none — use method='seminaive'"
        )
    pops = database.pops
    if strata is None:
        strata = stratify(program)
    condition_reads = strata.condition_reads
    # The monolithic engines enumerate over the whole program's domain;
    # pinning it here keeps totalized heads and fallback enumeration
    # identical stratum-by-stratum.
    domain: List[Any] = database.enumeration_domain(program.constants())
    stats = EvalStats()
    indexes = IndexManager(stats=stats.join) if is_indexed_plan(plan) else None
    # Each finished stratum is published into a database derived from
    # the last: the EDB stores and their indexes are shared, never
    # copied.
    working = database
    combined = Instance(pops)
    reports: List[StratumReport] = []

    for index, (component, recursive) in enumerate(strata.components):
        sub = strata.programs[index]
        scope = kernel_scopes(index) if kernel_scopes is not None else None
        before = (
            stats.iterations,
            stats.rule_applications,
            stats.valuations,
        )
        try:
            instance, steps = _evaluate_component(
                sub,
                working,
                recursive,
                method,
                functions,
                max_iterations,
                plan,
                domain,
                stats,
                indexes,
                engine,
                workers,
                budget,
                scope,
            )
        except BudgetExceeded as exc:
            # Enrich the partial: every frozen stratum is a consistent
            # fixpoint prefix, and the interrupted stratum's own
            # partial (if any) is an under-approximation of its
            # fixpoint — their union is ⊑ the true least fixpoint.
            inner = exc.partial
            inner_steps = 0
            if inner is not None:
                inner_steps = inner.steps
                for rel in component:
                    combined.update(rel, inner.instance.support(rel))
            reports.append(
                StratumReport(
                    relations=component,
                    recursive=recursive,
                    steps=inner_steps,
                    iterations=stats.iterations - before[0],
                    rule_applications=stats.rule_applications - before[1],
                    valuations=stats.valuations - before[2],
                )
            )
            snapshot = stats.snapshot()
            snapshot["strata"] = len(reports)
            snapshot["recursive_strata"] = sum(
                1 for r in reports if r.recursive
            )
            exc.partial = PartialResult(
                instance=combined,
                steps=max((r.steps for r in reports), default=0),
                stats=snapshot,
                strata=[r.as_dict() for r in reports],
                delta=inner.delta if inner is not None else None,
                trace=inner.trace if inner is not None else [],
            )
            raise
        reports.append(
            StratumReport(
                relations=component,
                recursive=recursive,
                steps=steps,
                iterations=stats.iterations - before[0],
                rule_applications=stats.rule_applications - before[1],
                valuations=stats.valuations - before[2],
            )
        )
        # Freeze the component: publish its fixpoint as POPS EDB
        # relations for every later stratum (each indexed once by the
        # derived database and probed read-only from then on), and the
        # support of each one a later condition reads as a Boolean
        # relation of the same name: a key view sharing store and index.
        frozen = {rel: dict(instance.support(rel)) for rel in component}
        working = working.derive(
            relations=frozen,
            key_views={
                rel: rel for rel in component if rel in condition_reads
            },
        )
        for rel, support in frozen.items():
            combined.update(rel, support)
        if budget is not None:
            # Completed strata count permanently toward the tuple
            # budget; the next stratum's in-flight charge rides on top.
            budget.commit_tuples(instance.size())

    snapshot = stats.snapshot()
    snapshot["strata"] = len(reports)
    snapshot["recursive_strata"] = sum(1 for r in reports if r.recursive)
    if workers > 1:
        snapshot["shard_workers"] = workers
    return EvaluationResult(
        instance=combined,
        steps=max((r.steps for r in reports), default=0),
        trace=[],
        stats=snapshot,
        strata=reports,
    )
