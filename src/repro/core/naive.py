"""Naïve evaluation of datalog° (Algorithm 1, Section 4.1).

Start every IDB at ``⊥``, repeatedly apply the immediate consequence
operator (ICO) ``F`` and stop as soon as ``J⁽ᵗ⁺¹⁾ = J⁽ᵗ⁾``; the result
is the least fixpoint (when the iteration converges — over unstable
value spaces it may not, and a step budget raises
:class:`~repro.fixpoint.iteration.DivergenceError`).

The ICO here is evaluated *rule-at-a-time* over sparse finite-support
instances, with guard-driven join enumeration where the value space's
flags make skipping sound (see :mod:`repro.core.valuations`).  Over
POPS that distinguish "absent" (``⊥``) from ``0`` (e.g. ``R⊥``,
``THREE``), head atoms are totalized over ``GA(τ, D₀)`` so that empty
sums yield ``0`` exactly as the formal semantics prescribes.

**Frontier rounds** (§4.3): ``F(J)(h)`` reads only the atoms of ``h``'s
groundings, so in the chain ``J⁽ᵗ⁾ = F(J⁽ᵗ⁻¹⁾)`` a head whose groundings
read no atom of ``Δ⁽ᵗ⁾ = {a : J⁽ᵗ⁾(a) ≠ J⁽ᵗ⁻¹⁾(a)}`` keeps its value.
Over a sparse space the chain grows and absent atoms zero a grounding
in both rounds, so the *delta bodies* of :func:`footprint_program`,
run key-only over ``Δ⁽ᵗ⁾``, find exactly the heads to recompute; the
rest are carried over.  That finder, :meth:`NaiveEvaluator.affected`,
takes a change set of any relation a body reads, EDB included, and
reads no value, so it needs no licence: DRed's over-deletion marking
(:mod:`repro.core.incremental`) calls it over the pre-mutation
database.  Round 1 is full from ``⊥``; from a warm start ``J`` (a
fixpoint) ``run(start=J, changed=Δ_EDB)`` seeds it with the batch's
grown EDB keys, since ``F_new(J)(h) = F_old(J)(h) = J(h)`` at every
head that reads none of them; a grown active domain keeps it full.  A
round after which over half of the instance changed is full too;
steps, budget partials and traces stay Algorithm 1's.  A recomputed
head may ⊕-accumulate in another order, so :meth:`NaiveEvaluator.run`
licenses the rounds only for a sparse space without ``⊖`` whose values
are held in a canonical form on which ``⊕`` is order-free
(``caps.canonical``, Trop+_p), a compiled engine, and no interpreted
function or key read as a value; else ``stats["frontier_refusal"]``
says why.  Every value in a round is canonical: the database's stores
and a warm start are mapped to the form on entry, and every product
folds from ``1``.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Collection, Dict, Hashable, List, Optional, Sequence, Tuple

from ..semirings.base import FunctionRegistry, Value
from .ast import And, BoolAtom, Term, TrueCond, Variable, eval_term
from .guardrails import Budget, BudgetExceeded, PartialResult, attach_partial
from .indexes import IndexManager, JoinStats, KeyIndex
from .instance import Database, Instance, Key
from .kernels import BodyKernels, KernelScope
from .pushdown import compile_schedule
from .rules import FuncFactor, KeyAsValue, Program, Rule, SumProduct
from .valuations import (
    body_guards,
    is_indexed_plan,
    late_idb_guards,
    pushable_indicator_conditions,
    refresh_guard_indexes,
)


@dataclass
class EvalStats:
    """Work counters for engine comparisons (experiments E12, E21, E22).

    ``join`` holds the join-core probe/scan counters (see
    :class:`~repro.core.indexes.JoinStats`); its fields are flattened
    into :meth:`snapshot` so benchmarks can read e.g.
    ``stats["keys_examined"]`` — the number of candidate keys the join
    core touched, the metric on which indexed planning must beat the
    seed's scan-per-candidate enumeration.

    ``rule_applications`` counts every evaluation of one rule body (a
    differential variant counts once per occurrence-variant): the
    scheduler's headline metric — SCC scheduling drops it from
    ``#bodies × global-fixpoint depth`` to ``Σ #bodies × per-SCC
    depth``, with non-recursive strata applying exactly once.

    ``rules_skipped`` counts the rule applications the compiled engine
    avoided outright via delta-driven activation: a body none of whose
    IDB inputs were touched by the last delta (every other store is
    frozen for the evaluator's lifetime) re-uses its cached
    contribution instead of re-joining; a semi-naïve differential
    variant whose delta-occurrence relation received no delta facts is
    dropped before its guards are even built.

    ``heads_recomputed`` counts the heads the naïve ICO evaluated over
    all rounds (a frontier round evaluates only the affected ones), and
    ``frontier_refusal`` names the first reason a chain was refused them.
    """

    iterations: int = 0
    valuations: int = 0
    products: int = 0
    rule_applications: int = 0
    rules_skipped: int = 0
    heads_recomputed: int = 0
    frontier_refusal: Optional[str] = None
    join: JoinStats = field(default_factory=JoinStats)

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "iterations": self.iterations,
            "valuations": self.valuations,
            "products": self.products,
            "rule_applications": self.rule_applications,
            "rules_skipped": self.rules_skipped,
            "heads_recomputed": self.heads_recomputed,
        }
        if self.frontier_refusal is not None:
            out["frontier_refusal"] = self.frontier_refusal
        out.update(self.join.snapshot())
        return out


@dataclass
class EvaluationResult:
    """Result of running an evaluation strategy to fixpoint.

    Attributes:
        instance: The least-fixpoint IDB instance.
        steps: Convergence step count ``t`` with ``J⁽ᵗ⁾ = J⁽ᵗ⁺¹⁾``.
            For SCC-scheduled runs this is the *deepest stratum's*
            step count (strata converge independently; there is no
            single global chain).
        trace: Per-iteration snapshots ``[J⁽⁰⁾, J⁽¹⁾, …]`` when captured.
        stats: Work counters.
        strata: Per-stratum
            :class:`~repro.core.scheduler.StratumReport` records when
            the run was SCC-scheduled (empty for monolithic runs).
        verdict: The pre-flight
            :class:`~repro.core.guardrails.PreflightVerdict` when
            ``solve()`` ran its convergence check (``None`` when
            pre-flight was off or the result came from a bare
            evaluator).
    """

    instance: Instance
    steps: int
    trace: List[Instance] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    strata: List = field(default_factory=list)
    verdict: Optional[object] = None


def _relation_equal(pops, current, previous) -> bool:
    """Pointwise equality of two relation supports (stored entries only).

    Instances store only non-``⊥`` values, so equal relations have the
    same key set; a size or key mismatch is an immediate change.
    """
    if len(current) != len(previous):
        return False
    for key, value in current.items():
        old = previous.get(key, _ABSENT)
        if old is _ABSENT or not pops.eq(value, old):
            return False
    return True


_ABSENT = object()

#: Prefixes of the relations :func:`footprint_program`'s bodies read:
#: the changed (or grown) facts of ``R``; the affected head keys of ``T``.
DELTA_PREFIX = "__delta_"
AFFECTED_PREFIX = "__affected_"


def _conjoin(atom: BoolAtom, body: SumProduct) -> SumProduct:
    """``body`` with ``atom`` conjoined first to its condition, where it
    is a positive guard."""
    condition = (
        atom if isinstance(body.condition, TrueCond) else And((atom, body.condition))
    )
    return SumProduct(body.factors, condition)


def footprint_program(
    program: Program,
    grown: Collection[str] = (),
    restricted: Collection[str] = (),
    key_only: bool = False,
) -> Optional[Program]:
    """The *delta bodies* — per atom occurrence of a relation ``R`` in
    ``grown`` (under a function too), the body with it reading
    ``DELTA_PREFIX + R`` — and the *restricted bodies* — every body of a
    relation ``T`` in ``restricted``, conjoined with ``AFFECTED_PREFIX +
    T(head args)`` — or ``None`` when there are none.  A ``key_only``
    delta body whose occurrence sits under a function also conjoins its
    delta atom, which then drives enumeration (an atom under a function
    binds nothing).  Frontier rounds, the affected-heads finder and
    :mod:`repro.core.incremental`'s bootstrap run them."""
    rules: List[Rule] = []
    for rule in program.rules:
        bodies: List[SumProduct] = []
        restrict = rule.head_relation in restricted
        for body in rule.bodies:
            if restrict:
                bodies.append(_conjoin(
                    BoolAtom(AFFECTED_PREFIX + rule.head_relation, rule.head_args), body
                ))
            for pos, (atom, under) in enumerate(body.atoms()):
                if atom.relation in grown:
                    name = DELTA_PREFIX + atom.relation
                    delta = body.with_atom_renamed(pos, name)
                    if under and key_only:
                        delta = _conjoin(BoolAtom(name, atom.args), delta)
                    bodies.append(delta)
        if bodies:
            rules.append(Rule(rule.head_relation, rule.head_args, tuple(bodies)))
    if not rules:
        return None
    return Program(
        rules=rules, edbs=dict(program.edbs),
        bool_edbs=dict(program.bool_edbs), idbs=dict(program.idbs),
    )


def _head_key(args: Tuple[Term, ...]) -> Callable[[Dict[str, Any]], Tuple]:
    """The head key of a valuation."""
    if len(args) > 1 and all(isinstance(a, Variable) for a in args):
        return itemgetter(*(a.name for a in args))
    return lambda valu: tuple(eval_term(a, valu) for a in args)


class NaiveEvaluator:
    """Rule-at-a-time naïve evaluation (Algorithm 1)."""

    def __init__(
        self,
        program: Program,
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        max_iterations: int = 100_000,
        total_heads: Optional[bool] = None,
        extra_domain: Sequence[Any] = (),
        plan: str = "indexed",
        domain: Optional[Sequence[Any]] = None,
        stats: Optional[EvalStats] = None,
        indexes: Optional[IndexManager] = None,
        engine: str = "auto",
        budget: Optional[Budget] = None,
        kernel_scope: Optional[KernelScope] = None,
        kernel_templates: Optional[Dict[Hashable, Any]] = None,
    ):
        """``domain``, ``stats`` and ``indexes`` exist for the stratum
        scheduler: per-stratum evaluators must enumerate over the
        *whole program's* domain (not the sub-program's, which may be
        smaller) and share one counter set plus one index cache so
        frozen-layer indexes are built once and reused across strata.

        ``engine`` selects the join/evaluation pipeline, as documented
        on :func:`repro.core.engine.solve`; the evaluator sees it only
        through :class:`~repro.core.kernels.BodyKernels`.  Every mode
        but ``"interpreted"`` (the re-planned differential baseline)
        additionally gets delta-driven rule activation.
        ``kernel_scope`` hands the scheduler's stratum of a prepared
        demand query the kernels earlier solves of that query built;
        ``kernel_templates`` hands an incremental batch the kernels
        earlier batches generated.
        """
        self.program = program
        self.database = database
        self.pops = database.pops
        self.functions = functions or FunctionRegistry()
        self.max_iterations = max_iterations
        self.budget = budget
        #: Wall-clock poll for the hot loops; ``None`` when no wall
        #: budget is armed, so the happy path pays one load per plan.
        self._poll = budget.wall_hook() if budget is not None else None
        self.plan = plan
        self.engine = engine
        self.idb_names = program.idb_names()
        self.stats = stats if stats is not None else EvalStats()
        if domain is not None:
            self.domain: List[Any] = list(domain)
        else:
            self.domain = database.enumeration_domain(
                program.constants() | set(extra_domain)
            )
        if total_heads is None:
            total_heads = not self.pops.caps.sparse
        self.total_heads = total_heads
        self.indexes = (
            indexes if indexes is not None else IndexManager(stats=self.stats.join)
        )
        self._epoch = 0
        #: The instance IDB guards read, in a cell of its own: a guard
        #: that referenced the evaluator would make a reference cycle,
        #: and leave every evaluator to the cyclic collector.
        self._reading: List[Instance] = [Instance(self.pops)]
        #: The last instance :meth:`ico` returned, held weakly: a stratum's
        #: evaluator must not keep its result alive.
        self._produced: Callable[[], Optional[Instance]] = lambda: None
        self._last_seen: Optional[Instance] = None
        self._rel_versions: Dict[str, int] = {}
        self._kernel_scope = kernel_scope
        self._kernel_templates = kernel_templates
        self._plans = self._build_plans()
        # One kernel per plan for the evaluator's lifetime (= one
        # stratum under the SCC scheduler); for the compiled engines
        # also the static input-relation sets per plan and the last
        # contribution of each plan for delta-driven reuse.
        self._kernels = BodyKernels(
            engine, plan, database, self.functions, self.idb_names,
            self.domain, stats=self.stats.join, poll=self._poll,
            scope=kernel_scope, templates=kernel_templates,
        )
        self.mode = self._kernels.mode
        self.compiled = self.mode != "interpreted"
        #: Per plan: the IDB relations its body reads.  Boolean stores
        #: are frozen for the evaluator's lifetime, so IDBs are a
        #: body's only inputs that change between iterations.
        self._plan_deps = [
            tuple(
                sorted(
                    {
                        atom.relation
                        for atom, _ in body.atoms()
                        if atom.relation in self.idb_names
                    }
                )
            )
            for _rule, body, _guards, _extra in self._plans
        ]
        #: Per plan: (dep-version vector at computation time, contribution).
        self._contributions: List[
            Optional[Tuple[Tuple, Dict[Tuple[str, Key], Value]]]
        ] = [None] * len(self._plans)
        #: Whether :meth:`run` licensed frontier rounds, and the atoms
        #: where the last output differs from its input (``None``: unknown).
        self._armed = False
        self._delta: Optional[Dict[str, List[Key]]] = None
        self._frontier: Optional[Tuple[list, Dict[str, Dict[Key, None]], BodyKernels]] = None

    # ------------------------------------------------------------------
    def _build_plans(self) -> List[Tuple[Rule, SumProduct, list, tuple]]:
        plans = []
        for rule in self.program.rules:
            for body in rule.bodies:
                guards = body_guards(
                    body,
                    self.pops,
                    self.database,
                    self.idb_names,
                    late_idb_guards(self._idb_supplier),
                    indexes=self.indexes if is_indexed_plan(self.plan) else None,
                )
                extra = pushable_indicator_conditions(
                    body, self.pops, self.total_heads
                )
                plans.append((rule, body, guards, extra))
        return plans

    def reads_domain(self) -> bool:
        """Whether some body's plan reads the active domain
        (:attr:`PushdownSchedule.reads_domain
        <repro.core.pushdown.PushdownSchedule.reads_domain>`).  If none
        does, every valuation joins stored atoms: the program is range
        restricted, and its fixpoint does not depend on the domain."""
        return any(
            compile_schedule(
                body.condition, extra, (),
                [guard for guard in guards if guard.simple_args()],
                body.enumeration_order(),
            ).reads_domain
            for _rule, body, guards, extra in self._plans
        )

    def pin_indexes(self, frozen: Dict[str, KeyIndex], instance: Instance) -> None:
        """Read each IDB ``R`` of ``frozen`` in ``instance`` through a
        view of the frozen index ``frozen[R]``, which must hold exactly
        ``R``'s entries there, in their order, instead of indexing it
        (:meth:`IndexManager.pin <repro.core.indexes.IndexManager.pin>`).
        Any other instance's ``R`` is indexed as usual."""
        for rel, index in frozen.items():
            self.indexes.pin(("idb", f"idb:{rel}"), index, instance.support(rel))

    def unpin_indexes(self, frozen: Dict[str, KeyIndex]) -> None:
        """Drop the pins of :meth:`pin_indexes`: the pinned instance may
        be written from here on."""
        for rel in frozen:
            self.indexes.invalidate(("idb", f"idb:{rel}"))

    def _idb_supplier(self, name: str):
        # The mapping (not just its keys) feeds the guard index, so
        # probed factor values ride along with the probed keys.
        reading = self._reading
        return lambda: reading[0].support(name)

    # ------------------------------------------------------------------
    def _bump_changed_relations(self, instance: Instance) -> None:
        """Advance per-relation index versions for changed stores only.

        IDB guard indexes are versioned by these counters (not by the
        global epoch), so a relation the last delta did not touch keeps
        its index — and its accumulated probe observations — across the
        iteration instead of being rebuilt; ``rebuild_skips`` counts the
        relations whose refresh was skipped this iteration.  The
        comparison is pointwise over the stored supports, which is what
        makes skipping sound for value-carrying entries: "untouched"
        means every carried value is still exactly what the store
        holds, not merely that the key set is unchanged.

        The version counters advanced here are what delta-driven
        activation keys its contribution cache on: a rule body whose
        dependency versions are unchanged since its last evaluation
        produces exactly its previous contribution.
        """
        previous = self._last_seen
        for rel in self.program.idbs:
            if previous is not None and _relation_equal(
                self.pops, instance.support(rel), previous.support(rel)
            ):
                # Only count a skip when an index exists to skip —
                # head-only relations never drive a guard.
                if self.indexes.peek(("idb", f"idb:{rel}")) is not None:
                    self.stats.join.rebuild_skips += 1
            else:
                self._rel_versions[rel] = self._rel_versions.get(rel, 0) + 1
        self._last_seen = instance

    def _dep_versions(self, idx: int) -> Tuple:
        """The current version vector of one plan's input relations."""
        versions = self._rel_versions
        return tuple(versions.get(rel, 0) for rel in self._plan_deps[idx])

    def kernel(self, idx: int):
        """The kernel of plan ``idx`` (see
        :class:`~repro.core.kernels.BodyKernels`), built on first use
        and kept for the evaluator's lifetime."""
        rule, body, guards, extra = self._plans[idx]
        return self._kernels.get(
            idx, guards, body, head_args=rule.head_args,
            extra_conjuncts=extra, label=f"{rule.head_relation}.{idx}",
        )

    def _apply(
        self, idx: int, guards: list, instance: Instance,
        bucket: Dict[Key, Value],
    ) -> None:
        """One rule application: ⊕-accumulate plan ``idx``'s matches
        over ``instance`` into ``bucket`` (keyed by head key alone —
        the rule's head relation is fixed)."""
        matched = self.kernel(idx).run(guards, instance, bucket)
        self.stats.valuations += matched
        self.stats.products += matched

    def ico(self, instance: Instance) -> Instance:
        """One application of the immediate consequence operator: a
        frontier round inside a licensed :meth:`run` when ``instance``
        is this evaluator's last output and at most half of it changed,
        else a full round.  ``instance`` is read as given: in a space
        with a canonical form its values must be in it (:meth:`run`
        maps a warm start)."""
        self._reading[0] = instance
        self._epoch += 1
        delta = self._delta
        if delta is not None and instance is self._produced() and (
            2 * sum(map(len, delta.values())) <= instance.size()
        ):
            out = self._frontier_ico(instance)
        else:
            out = self._full_ico(instance)
            if self._armed:
                self._delta = self._changes(out, instance)
        self._produced = weakref.ref(out)
        return out

    def _full_ico(self, instance: Instance) -> Instance:
        """Algorithm 1's round: every plan over ``instance``."""
        indexed = is_indexed_plan(self.plan)
        if indexed:
            self._bump_changed_relations(instance)
        # Per-relation accumulation buckets: every rule's head relation
        # is fixed, so matches accumulate under their head key alone.
        acc: Dict[str, Dict[Key, Value]] = {}
        if self.total_heads:
            zero = self.pops.zero
            for rel, arity in self.program.idbs.items():
                bucket = acc.setdefault(rel, {})
                for key in itertools.product(self.domain, repeat=arity):
                    bucket[key] = zero
        add = self.pops.add
        poll = self._poll
        for idx, (rule, _body, guards, _extra) in enumerate(self._plans):
            if poll is not None:
                poll()
            bucket = acc.setdefault(rule.head_relation, {})
            if self.compiled:
                # Delta-driven activation: a body whose IDB inputs were
                # all untouched since its last evaluation — their
                # version counters match the ones stamped on the cached
                # contribution — evaluates to exactly that previous
                # contribution; reuse it instead of joining.
                versions_now = self._dep_versions(idx)
                cached = self._contributions[idx]
                if cached is not None and cached[0] == versions_now:
                    self.stats.rules_skipped += 1
                    contrib = cached[1]
                else:
                    self.stats.rule_applications += 1
                    refresh_guard_indexes(
                        guards, self.indexes, self._epoch,
                        versions=self._rel_versions,
                        stats=self.stats.join,
                    )
                    contrib = {}
                    self._apply(idx, guards, instance, contrib)
                    self._contributions[idx] = (versions_now, contrib)
                if bucket:
                    for key, value in contrib.items():
                        if key in bucket:
                            bucket[key] = add(bucket[key], value)
                        else:
                            bucket[key] = value
                else:
                    bucket.update(contrib)
                continue
            self.stats.rule_applications += 1
            if indexed:
                refresh_guard_indexes(
                    guards, self.indexes, self._epoch,
                    versions=self._rel_versions,
                )
            self._apply(idx, guards, instance, bucket)
        out = Instance(self.pops)
        out_set = out.set
        for rel, entries in acc.items():
            self.stats.heads_recomputed += len(entries)
            for key, value in entries.items():
                out_set(rel, key, value)
        return out

    def _changes(
        self, out: Instance, instance: Instance, heads: Optional[Dict] = None
    ) -> Optional[Dict[str, List[Key]]]:
        """The atoms (among ``heads``, per relation) where ``out``
        differs from ``instance``, or ``None`` when ``out`` lacks one of
        ``instance``'s atoms: the chain did not grow."""
        eq, delta, full = self.pops.eq, {}, heads is None
        for rel in {*self.program.idbs, *instance.relations()} if full else heads:
            new, old = out.support(rel), instance.support(rel)
            changed = []
            for key in {**old, **new} if full else heads[rel]:
                if key not in new:
                    if key in old:
                        return None
                elif key not in old or not eq(new[key], old[key]):
                    changed.append(key)
            if changed:
                delta[rel] = changed
        return delta

    # ------------------------------------------------------------------
    def _frontier_refusal(self) -> Optional[str]:
        """Why a chain may not take frontier rounds (module docstring),
        or ``None`` when it may."""
        caps = self.pops.caps
        if caps.has_minus:
            return "the space has ⊖"
        if not caps.sparse or caps.canonical is None:
            return "⊕ is not known to be order-free (no canonical form)"
        if not self.compiled:
            return "the interpreted engine"
        if self.total_heads:
            return "totalized heads"
        for factor in (f for rule in self.program.rules for b in rule.bodies for f in b.factors):
            if isinstance(factor, (FuncFactor, KeyAsValue)):
                return f"a {type(factor).__name__}: {factor}"
        return None

    def _frontier_plans(self) -> Tuple[list, Dict[str, Dict[Key, None]], BodyKernels]:
        """Built once: per delta body (one per atom occurrence of every
        relation a body reads, EDB included), then per restricted body,
        its rule, body, guards, conjuncts, its ``gate`` guard, the name
        of the footprint the gate reads and whether it is restricted;
        the footprints by relation name; and their kernels.  The
        footprints (the changed atoms of ``R`` in ``DELTA_PREFIX + R``,
        the affected head keys of ``T`` in ``AFFECTED_PREFIX + T``) are
        Boolean relations of a derived database that, unlike any other
        database's, are refilled before each pass: lookups and scans
        read them as the gates' indexes do."""
        if self._frontier is None:
            program = self.program
            reads = {
                atom.relation for rule in program.rules for body in rule.bodies
                for atom, _ in body.atoms()
            }
            footprints: Dict[str, Dict[Key, None]] = {DELTA_PREFIX + rel: {} for rel in reads}
            footprints.update((AFFECTED_PREFIX + rel, {}) for rel in program.idbs)
            database = self.database.derive(bool_relations={
                name: keys.keys() for name, keys in footprints.items()
            })
            kernels = BodyKernels(
                self.engine, self.plan, database, self.functions, self.idb_names, self.domain,
                stats=self.stats.join, poll=self._poll, scope=self._kernel_scope,
                templates=self._kernel_templates,
            )
            plans = []
            for restricted, bodies in enumerate((
                footprint_program(program, grown=reads, key_only=True),
                footprint_program(program, restricted=program.idbs),
            )):
                prefix = AFFECTED_PREFIX if restricted else DELTA_PREFIX
                for rule in bodies.rules if bodies is not None else ():
                    for body in rule.bodies:
                        guards = body_guards(
                            body, self.pops, database, self.idb_names,
                            late_idb_guards(self._idb_supplier), indexes=self.indexes,
                        )
                        # IDB stores grow after planning: the planner breaks
                        # cost ties by guard order, so toward the frozen stores.
                        guards.sort(key=lambda g: g.name.startswith("idb:"))
                        gate = next(g for g in guards if g.name.startswith("bool:" + prefix))
                        plans.append((
                            rule, body, guards,
                            pushable_indicator_conditions(body, self.pops, False),
                            gate, gate.name[len("bool:"):], bool(restricted),
                        ))
            self._frontier = (plans, footprints, kernels)
        return self._frontier

    def _see(self, instance: Instance, changed: Optional[Collection[str]]) -> None:
        """Make ``instance`` the one IDB guards read, advancing the index
        versions of the relations where it differs from the last one
        seen: ``changed``, or every IDB when that is unknown."""
        if instance is self._last_seen:
            return
        known = changed is not None and self._last_seen is not None
        for rel in changed if known else self.program.idbs:
            self._rel_versions[rel] = self._rel_versions.get(rel, 0) + 1
        self._reading[0] = self._last_seen = instance

    def _frontier_pass(
        self, restricted: bool, footprint: Dict[str, Collection[Key]], instance: Instance
    ) -> Dict[str, Dict[Key, Any]]:
        """Every delta body (or restricted body) whose footprint relation
        holds a key of ``footprint``, over ``instance``: per head
        relation, the heads found key-only (or their recomputed sums)."""
        plans, footprints, kernels = self._frontier_plans()
        prefix = AFFECTED_PREFIX if restricted else DELTA_PREFIX
        # Fresh gate indexes: the interpreted engine plans from their
        # probe observations, and the last pass's frontier is not this one's.
        gates: Dict[str, KeyIndex] = {}
        for name, keys in footprints.items():
            if name.startswith(prefix):
                keys.clear()
                keys.update(dict.fromkeys(footprint.get(name[len(prefix):], ())))
                if keys:
                    gates[name] = KeyIndex(list(keys), stats=self.stats.join)
        out: Dict[str, Dict[Key, Any]] = {}
        for idx, (rule, body, guards, extra, gate, name, kind) in enumerate(plans):
            if kind != restricted or name not in gates:
                continue
            if self._poll is not None:
                self._poll()
            self.stats.rule_applications += 1
            refresh_guard_indexes(guards, self.indexes, self._epoch, versions=self._rel_versions)
            gate.index = gates[name]
            kernel = kernels.get(
                idx, guards, body, extra_conjuncts=extra,
                head_args=rule.head_args if restricted else None,
                label=f"{rule.head_relation}.frontier{idx}",
            )
            found = out.setdefault(rule.head_relation, {})
            if restricted:
                matched = kernel.run(guards, instance, found)
                self.stats.valuations += matched
                self.stats.products += matched
            else:
                add, key_of = found.setdefault, _head_key(rule.head_args)
                kernel.execute(guards, lambda valu, _slots: add(key_of(valu)))
        return out

    def affected(
        self, delta: Dict[str, Collection[Key]], instance: Instance
    ) -> Dict[str, Dict[Key, None]]:
        """Per head relation, the heads with a grounding over
        ``instance`` and this evaluator's database that reads an atom of
        ``delta`` (keys per relation, EDB or IDB): the delta bodies of
        :func:`footprint_program`, run key-only on the engine's kernels.
        No value is read, so no space needs a licence for it."""
        self._see(instance, None)
        return self._frontier_pass(False, delta, instance)

    def _frontier_ico(self, instance: Instance) -> Instance:
        """One frontier round: ``F(instance)``, where ``instance`` is
        ``F`` of the previous input, or a seeded warm start, and differs
        from it exactly on ``self._delta``.  The finder picks the heads;
        the restricted bodies recompute them in full."""
        self._see(instance, self._delta)
        affected = self.affected(self._delta, instance)
        buckets = self._frontier_pass(True, affected, instance)
        out = instance.copy()
        for rel, heads in affected.items():
            self.stats.heads_recomputed += len(heads)
            bucket = buckets.get(rel, {})
            for key in heads:
                out.set(rel, key, bucket.get(key, self.pops.bottom))
        self._delta = self._changes(out, instance, affected)
        return out

    def _partial(
        self, instance: Instance, steps: int, trace: List[Instance]
    ) -> PartialResult:
        return PartialResult(
            instance=instance,
            steps=steps,
            stats=self.stats.snapshot(),
            trace=trace,
        )

    def run(
        self,
        capture_trace: bool = False,
        start: Optional[Instance] = None,
        changed: Optional[Dict[str, Collection[Key]]] = None,
    ) -> EvaluationResult:
        """Iterate the ICO until convergence (Algorithm 1).

        The chain starts at ``⊥``, or at ``start`` — any ``J`` with
        ``J ⊑ F(J)`` and ``J ⊑ lfp(F)`` (an iterate of the chain, or
        the surviving instance of
        :mod:`repro.core.incremental`'s warm restart), from which it
        reaches the same least fixpoint; ``steps`` then counts from
        ``start``.  A space's canonical form (``pops.caps.canonical``)
        is applied to ``start``'s values on entry.

        ``changed`` seeds round 1's frontier: ``start`` must then be a
        fixpoint of the program over a database that differs from this
        evaluator's only in the grown EDB keys it lists per relation,
        with the same active domain.  A head that reads none of them
        keeps its value in ``F(start)``, so a licensed run recomputes
        only the heads the finder reaches from those keys (unless the
        half rule makes round 1 full).

        A tripped budget (wall poll inside :meth:`ico`, or the
        per-iteration size/wall charge) raises
        :class:`~repro.core.guardrails.BudgetExceeded` carrying the
        last *completed* iterate as its partial result; exhausting
        ``max_iterations`` raises the same structured error (it
        subclasses the old ``DivergenceError``), with the final iterate
        attached.
        """
        refusal = self._frontier_refusal()
        if refusal is not None and self.stats.frontier_refusal is None:
            self.stats.frontier_refusal = refusal
        self._armed, self._delta = refusal is None, None
        budget = self.budget
        canonical = self.pops.caps.canonical
        if start is None:
            current = Instance(self.pops)
        elif canonical is None:
            current = start
        else:
            current = Instance(self.pops, {
                rel: {key: canonical(v) for key, v in start.support(rel).items()}
                for rel in start.relations()
            })
        if changed and self._armed and start is not None:
            self._delta = {rel: list(keys) for rel, keys in changed.items()}
            self._produced, self._last_seen = weakref.ref(current), None
        trace: List[Instance] = [current.copy()] if capture_trace else []
        for step in range(self.max_iterations):
            self.stats.iterations += 1
            try:
                nxt = self.ico(current)
            except BudgetExceeded as exc:
                attach_partial(exc, self._partial(current, step, trace))
                raise
            if capture_trace:
                trace.append(nxt.copy())
            if nxt.equals(current) if self._delta is None else not self._delta:
                return EvaluationResult(
                    instance=current,
                    steps=step,
                    trace=trace,
                    stats=self.stats.snapshot(),
                )
            if budget is not None:
                try:
                    budget.charge_size(nxt.size())
                except BudgetExceeded as exc:
                    attach_partial(exc, self._partial(nxt, step + 1, trace))
                    raise
            current = nxt
        raise BudgetExceeded(
            f"naïve evaluation did not converge within "
            f"{self.max_iterations} iterations",
            resource="iterations",
            limit=self.max_iterations,
            spent=self.max_iterations,
            partial=self._partial(current, self.max_iterations, trace),
            verdict=budget.verdict if budget is not None else None,
            trace=trace,
        )


def naive_fixpoint(
    program: Program,
    database: Database,
    functions: Optional[FunctionRegistry] = None,
    max_iterations: int = 100_000,
    capture_trace: bool = False,
    plan: str = "indexed",
    engine: str = "auto",
    budget: Optional[Budget] = None,
) -> EvaluationResult:
    """Convenience wrapper: build a :class:`NaiveEvaluator` and run it."""
    evaluator = NaiveEvaluator(
        program,
        database,
        functions=functions,
        max_iterations=max_iterations,
        plan=plan,
        engine=engine,
        budget=budget,
    )
    return evaluator.run(capture_trace=capture_trace)
