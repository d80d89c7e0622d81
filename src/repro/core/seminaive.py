"""Semi-naïve evaluation for datalog° (Section 6, Algorithm 3).

Requires the value space to be a **complete distributive dioid**
(Definition 6.2) so that the difference ``b ⊖ a = ⋀{c | a ⊕ c ⊒ b}``
(Eq. 58) exists.  The algorithm keeps, instead of re-deriving the whole
instance, the per-iteration *delta*::

    δ⁽ᵗ⁾ = F(J⁽ᵗ⁾) ⊖ J⁽ᵗ⁾        J⁽ᵗ⁺¹⁾ = J⁽ᵗ⁾ ⊕ δ⁽ᵗ⁾

and computes ``δ⁽ᵗ⁾`` incrementally with the **differential rule** of
Theorem 6.5 (Eq. 64/65): each sum-product is affine in every IDB-atom
*occurrence* (occurrences are renamed apart, footnote 9 / Example 6.6),
so it suffices to evaluate, for each occurrence ``j``, the body with

* occurrences ``< j`` read from the *new* instance ``J⁽ᵗ⁾``,
* occurrence ``j`` read from the (small) delta ``δ⁽ᵗ⁻¹⁾``,
* occurrences ``> j`` read from the *old* instance ``J⁽ᵗ⁻¹⁾``,

EDB-only bodies dropping out entirely (Eq. 65).  Enumeration is driven
by the delta's support, which is what makes the method cheaper than
naïve evaluation; both engines share work counters so the benchmark
(E12) can report the saving.

The two lines of the iteration are one pass.  The kernels leave
``F``'s contributions in per-relation buckets;
:meth:`SemiNaiveEvaluator.advance` walks each bucket once against the
relation's raw store, keeps ``value ⊖ J[key]`` where it is not ``0``
(Eq. 58 — a key absent from ``J`` reads ``⊥ = 0`` and ``b ⊖ 0 = b``),
and ⊕-merges exactly those keys back into ``J``.  It is the only
implementation of that tail: :meth:`SemiNaiveEvaluator.run`, the warm
continuation of :mod:`repro.core.incremental` and the coordinator and
workers of :mod:`repro.core.sharded` all call it.

Indexes follow demand.  The delta of an iteration gets one
:class:`~repro.core.indexes.KeyIndex` per relation, scanned by the
variants that drive from it.  An index over ``J`` itself
(``("sn-new", rel)``) exists only once some variant's guard probes a
``new``/``old`` occurrence of ``rel`` — :meth:`_new_index` builds it
then, and ``advance`` feeds it each later delta.  A linear program
(≤ 1 IDB occurrence per body) has no such occurrence and never builds
one.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..semirings.base import POPS, FunctionRegistry, Value
from .ast import Constant, Variable
from .guardrails import Budget, BudgetExceeded, PartialResult, attach_partial
from .indexes import IndexManager, KeyIndex
from .instance import Database, Instance, Key
from .kernels import BodyKernels, KernelScope
from .naive import EvalStats, EvaluationResult, NaiveEvaluator
from .rules import FuncFactor, Program, RelAtom, Rule, SumProduct, factor_atoms
from .valuations import (
    Guard,
    body_guards,
    is_indexed_plan,
    pushable_indicator_conditions,
    variant_store,
)


#: ``dict.get`` default for a key the store does not hold (``None``
#: could be a POPS value).
_ABSENT = object()


class SemiNaiveError(ValueError):
    """Raised when a program/value space cannot run semi-naïve."""


def seminaive_refusal(program: Program, pops: POPS) -> Optional[str]:
    """Why semi-naïve evaluation cannot run ``program`` over ``pops``
    (``None`` when it can).

    Eq. 58's ``⊖`` must exist — a complete distributive dioid,
    ``pops.caps.has_minus`` (Definition 6.2) — and every body must be
    affine in each IDB occurrence (Theorem 6.5), which an IDB atom
    under an interpreted function is not.
    """
    if not pops.caps.has_minus:
        return (
            f"{pops.name} is not a complete distributive dioid; "
            "semi-naïve evaluation needs the ⊖ operator (Definition 6.2)"
        )
    idb_names = program.idb_names()
    for rule in program.rules:
        for body in rule.bodies:
            for factor in body.factors:
                if isinstance(factor, FuncFactor) and any(
                    atom.relation in idb_names
                    for atom, _ in factor_atoms(factor)
                ):
                    return (
                        "IDB atom under interpreted function breaks "
                        f"affinity: {factor}"
                    )
    return None


class SemiNaiveEvaluator:
    """Semi-naïve evaluation with the differential rule (Theorem 6.5)."""

    def __init__(
        self,
        program: Program,
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        max_iterations: int = 100_000,
        plan: str = "indexed",
        domain: Optional[Sequence[Any]] = None,
        stats: Optional[EvalStats] = None,
        indexes: Optional[IndexManager] = None,
        engine: str = "auto",
        budget: Optional[Budget] = None,
        kernel_scope: Optional[KernelScope] = None,
        kernel_templates: Optional[Dict[Hashable, Any]] = None,
    ):
        """``domain``, ``stats`` and ``indexes`` serve the stratum
        scheduler exactly as in
        :class:`~repro.core.naive.NaiveEvaluator`: pinned whole-program
        domain, shared counters, shared index cache (so frozen-layer
        indexes survive across strata).  ``engine`` selects compiled
        kernels vs the interpreted pipeline, and ``kernel_scope`` and
        ``kernel_templates`` share a prepared demand query's or an
        incremental session's kernels, as there.
        """
        self.program = program
        self.database = database
        self.pops = database.pops
        refusal = seminaive_refusal(program, self.pops)
        if refusal is not None:
            raise SemiNaiveError(refusal)
        self.functions = functions or FunctionRegistry()
        self.max_iterations = max_iterations
        self.budget = budget
        self._poll = budget.wall_hook() if budget is not None else None
        self.plan = plan
        self.engine = engine
        self.idb_names = program.idb_names()
        self.stats = stats if stats is not None else EvalStats()
        if domain is not None:
            self.domain: List = list(domain)
        else:
            self.domain = database.enumeration_domain(program.constants())
        self.indexes = (
            indexes if indexes is not None else IndexManager(stats=self.stats.join)
        )
        self._plans = self._build_plans()
        #: Linear programs (≤ 1 IDB occurrence per body, §4) never read
        #: the ``old`` store — Eq. 64 only consults it for occurrence
        #: ranks after the delta — so the per-iteration ``new.copy()``
        #: that preserves it can be skipped and ``new`` merged in place.
        self._linear = program.is_linear()
        #: One kernel per (plan, delta occurrence ``j``).
        self._kernel_scope = kernel_scope
        self._kernel_templates = kernel_templates
        self._kernels = BodyKernels(
            engine, plan, database, self.functions, self.idb_names,
            self.domain, stats=self.stats.join, poll=self._poll,
            scope=kernel_scope, templates=kernel_templates,
        )
        self.mode = self._kernels.mode
        self.compiled = self.mode != "interpreted"
        #: Compiled-engine guard cache: (plan, j) -> (guards, delta
        #: guards).  Guard lists are structurally iteration-invariant;
        #: only the delta occurrence's index changes per iteration, so
        #: the compiled path re-points exactly that index instead of
        #: rebuilding every Guard (and re-validating every static
        #: index) per variant per iteration.
        self._variant_guard_cache: Dict[
            Tuple[int, int], Tuple[List[Guard], List[Guard]]
        ] = {}
        #: relation -> (delta instance, its KeyIndex) — one build per
        #: relation per iteration, shared by every variant whose delta
        #: occurrence reads that relation.
        self._delta_indexes: Dict[str, Tuple[Instance, KeyIndex]] = {}

    # ------------------------------------------------------------------
    def _build_plans(self) -> List[Tuple[Rule, SumProduct, List[int], Tuple]]:
        """Per body: IDB-atom factor positions plus the pushable
        indicator conjuncts (both deterministic per body — computed
        once here instead of on every fixpoint iteration)."""
        plans = []
        for rule in self.program.rules:
            for body in rule.bodies:
                idb_positions = [
                    i
                    for i, f in enumerate(body.factors)
                    if isinstance(f, RelAtom) and f.relation in self.idb_names
                ]
                extra_conjuncts = pushable_indicator_conditions(
                    body, self.pops, total_heads=False
                )
                plans.append((rule, body, idb_positions, extra_conjuncts))
        return plans

    # ------------------------------------------------------------------
    def _body_guards(
        self,
        body: SumProduct,
        idb_positions: List[int],
        j: int,
        delta: Instance,
        new: Instance,
        old: Instance,
    ) -> List[Guard]:
        """:func:`body_guards` for the variant where occurrence ``j``
        reads the delta: each IDB occurrence drives from the store
        Eq. 64 assigns it (:func:`variant_store`).

        Under ``plan="indexed"`` the delta's index is rebuilt once per
        iteration (:meth:`_delta_index`), and both ``new``- and
        ``old``-store occurrences probe the *new* index, built on first
        demand and maintained incrementally as deltas are applied.
        Probing ``new``'s keys for an ``old`` occurrence
        over-approximates ``old``'s support by exactly the last delta —
        sound, because the extra candidates read ``⊥ = 0`` from ``old``
        and their whole product is absorbed.

        A guard whose index covers the *same* store the variant reads
        (delta at ``j``, ``new`` before it) carries the stored values
        into the probe (``carries_value``), so the kernel skips the
        second hash lookup; ``old`` occurrences probe ``new``'s index
        and therefore stay key-only.
        """
        indexed = is_indexed_plan(self.plan)
        state = (new, delta, old)

        def idb_guard(atom: RelAtom, slot: int) -> Guard:
            rel_name = atom.relation
            store = variant_store(state, idb_positions.index(slot), j)
            index = None
            if indexed:
                if store is delta:
                    index = self._delta_index(rel_name, delta)
                else:
                    index = self._new_index(rel_name, new)
            return Guard(
                args=atom.args,
                keys=lambda s=store, r=rel_name: s.support(r),
                name=f"idb:{rel_name}",
                index=index,
                slot=slot,
                carries_value=store is not old,
            )

        return body_guards(
            body, self.pops, self.database, self.idb_names, idb_guard,
            indexes=self.indexes if indexed else None,
        )

    def _cached_body_guards(
        self,
        p_idx: int,
        j: int,
        body: SumProduct,
        idb_positions: List[int],
        delta: Instance,
        new: Instance,
        old: Instance,
    ) -> List[Guard]:
        """Cached guards for one variant, delta index re-pointed.

        The static guards (EDB supports, Boolean stores, the live
        ``new`` index that :meth:`advance` maintains incrementally) keep
        their index bindings for the whole run; only the guard reading
        the delta occurrence needs a fresh index per iteration — the
        kernel resolves ``guard.index`` in its prologue, so re-pointing
        it here is all the per-iteration work that remains.
        """
        cached = self._variant_guard_cache.get((p_idx, j))
        if cached is None:
            guards = self._body_guards(
                body, idb_positions, j, delta, new, old
            )
            delta_pos = idb_positions[j]
            delta_guards = [
                g
                for g in guards
                if g.name.startswith("idb:") and g.slot == delta_pos
            ]
            self._variant_guard_cache[(p_idx, j)] = (guards, delta_guards)
            return guards
        guards, delta_guards = cached
        for guard in delta_guards:
            guard.index = self._delta_index(guard.name[4:], delta)
        return guards

    def _delta_index(self, relation: str, delta: Instance) -> KeyIndex:
        """This iteration's index over one relation of the delta.

        Keyed on the delta instance itself, so a new iteration (a new
        delta) rebuilds and every variant of one iteration shares the
        build.  The interpreted pipeline re-plans per application, so
        the rebuilt index inherits its predecessor's decayed probe
        observations; compiled kernels record none.
        """
        cached = self._delta_indexes.get(relation)
        if cached is not None and cached[0] is delta:
            return cached[1]
        index = KeyIndex(delta.support(relation), stats=self.stats.join)
        if cached is not None:
            index.inherit_observations(cached[1])
        self._delta_indexes[relation] = (delta, index)
        return index

    def _new_index(self, relation: str, new: Instance) -> KeyIndex:
        """The incrementally-maintained index over ``new``'s support.

        Built on the first demand — a guard for a ``new``/``old``
        occurrence of ``relation`` — from the support *mapping*, so
        probed values ride along; :meth:`advance` keeps the carried
        values fresh by re-``add``-ing each applied delta key with its
        ⊕-merged value.
        """
        name = ("sn-new", relation)
        index = self.indexes.peek(name)
        if index is None:
            index = self.indexes.get(
                name, lambda: new.support(relation), version="live"
            )
        return index

    # ------------------------------------------------------------------
    def contributions(
        self, delta: Instance, new: Instance, old: Instance
    ) -> Dict[str, Dict[Key, Value]]:
        """One differential iteration's head contributions (Eq. 64/65).

        Returns per-head-relation buckets of ⊕-accumulated match
        values (the head relation is fixed per rule, so matches
        accumulate under their head key alone).  :meth:`run` and the
        sharded runtime (:mod:`repro.core.sharded`) both drive it, the
        latter with a partition of the delta: every full-iteration
        match contains exactly one delta tuple at its variant's
        occurrence ``j``, so restricting the delta store to one shard
        yields exactly that shard's slice of the match set — disjoint
        across shards, and bucket accumulation order within a shard
        matches the single-process enumeration order.
        """
        contributions: Dict[str, Dict[Key, Value]] = {}
        poll = self._poll
        state = (new, delta, old)
        for p_idx, (
            rule, body, idb_positions, extra_conjuncts
        ) in enumerate(self._plans):
            if not idb_positions:
                continue  # Eq. 65: EDB-only bodies drop out for t ≥ 1.
            for j in range(len(idb_positions)):
                if poll is not None:
                    poll()
                if self.compiled:
                    atom = body.factors[idb_positions[j]]
                    if not delta.support(atom.relation) and all(
                        isinstance(a, (Variable, Constant))
                        for a in atom.args
                    ):
                        # Delta-driven activation: the occurrence
                        # reading the delta drives the enumeration
                        # (its guard is always usable for simple
                        # args), so an empty delta store means the
                        # variant cannot match — drop it before
                        # guards are even built.
                        self.stats.rules_skipped += 1
                        continue
                    guards = self._cached_body_guards(
                        p_idx, j, body, idb_positions, delta, new, old
                    )
                else:
                    guards = self._body_guards(
                        body, idb_positions, j, delta, new, old
                    )
                self.stats.rule_applications += 1
                # Built from the first iteration's guards; later
                # iterations pass structurally identical lists (same
                # construction), only the index bindings differ.
                kernel = self._kernels.get(
                    (p_idx, j), guards, body, head_args=rule.head_args,
                    extra_conjuncts=extra_conjuncts,
                    variant=(tuple(idb_positions), j),
                    label=f"{rule.head_relation}.{p_idx}.d{j}",
                )
                matched = kernel.run(
                    guards, state,
                    contributions.setdefault(rule.head_relation, {}),
                )
                self.stats.valuations += matched
                self.stats.products += matched
        return contributions

    def advance(
        self, buckets: Dict[str, Dict[Key, Value]], new: Instance
    ) -> Tuple[Instance, Instance]:
        """The tail of one iteration: ``δ = F(J) ⊖ J``, ``J ← J ⊕ δ``.

        ``buckets`` hold ``F``'s contributions per head relation and
        ``new`` is ``J``; returns ``(δ, J ⊕ δ)``.  One pass per
        relation over the raw store: a key stays in ``δ`` when
        ``value ⊖ J[key]`` is not ``0`` (Eq. 58), and exactly those
        keys are ⊕-merged.  A key absent from ``J`` reads ``⊥ = 0``,
        where ``b ⊖ 0 = b`` and ``0 ⊕ b = b`` — its value is both the
        delta and the merged entry, no operator called.  The merged
        value needs no ``⊥`` check: in a dioid ``a ⊕ d ⊒ d ≠ 0``.

        A linear program merges into ``new`` in place.  Otherwise the
        first relation that changes copies ``new``, because Eq. 64
        reads the untouched instance as ``old`` for occurrence ranks
        after the delta; an empty ``δ`` (the fixpoint) copies nothing.
        Only the ``("sn-new", rel)`` indexes that a guard demanded
        (:meth:`_new_index`) are fed the merged values.

        Everything is applied between two budget polls, so a tripped
        budget never sees a half-merged ``J``.
        """
        pops = self.pops
        minus, add, eq, zero = pops.minus, pops.add, pops.eq, pops.zero
        delta = Instance(pops)
        merged_into = new
        for rel, entries in buckets.items():
            stored = new.support(rel).get
            fresh: Dict[Key, Value] = {}
            merged: Dict[Key, Value] = {}
            for key, value in entries.items():
                current = stored(key, _ABSENT)
                if current is _ABSENT:
                    if not (value is zero or eq(value, zero)):
                        fresh[key] = merged[key] = value
                    continue
                diff = minus(value, current)
                if not (diff is zero or eq(diff, zero)):
                    fresh[key] = diff
                    merged[key] = add(current, diff)
            if not fresh:
                continue
            if merged_into is new and not self._linear:
                merged_into = new.copy()
            delta.update(rel, fresh)
            merged_into.update(rel, merged)
            index = self.indexes.peek(("sn-new", rel))
            if index is not None:
                index.extend(merged)
        return delta, merged_into

    def bootstrap(self) -> Instance:
        """``J⁽¹⁾ = F(0̄)``: the shared first naïve application.

        The bootstrap shares this evaluator's counters, domain and
        index cache, so its EDB indexes are the ones the differential
        loop keeps probing (built once for the whole run).
        """
        bootstrap = NaiveEvaluator(
            self.program,
            self.database,
            functions=self.functions,
            max_iterations=1,
            plan=self.plan,
            domain=self.domain,
            stats=self.stats,
            indexes=self.indexes,
            engine=self.engine,
            budget=self.budget,
            kernel_scope=self._kernel_scope,
            kernel_templates=self._kernel_templates,
        )
        new = bootstrap.ico(Instance(self.pops))
        self.stats.iterations += 1
        return new

    def _partial(
        self,
        instance: Instance,
        steps: int,
        delta: Optional[Instance],
        trace: List[Instance],
    ) -> PartialResult:
        return PartialResult(
            instance=instance,
            steps=steps,
            stats=self.stats.snapshot(),
            delta=delta,
            trace=trace,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        capture_trace: bool = False,
        start: Optional[Tuple[Instance, Instance, Instance]] = None,
    ) -> EvaluationResult:
        """Run Algorithm 3 to fixpoint.

        ``start`` enters the loop mid-chain with a ``(δ, new, old)``
        state — ``new = old ⊕ δ``, as :meth:`advance` returns it —
        instead of bootstrapping from ``⊥``: any later state of this
        chain, or the warm restart of :mod:`repro.core.incremental`
        (``new`` and ``old`` are then the evaluator's to merge into).
        ``steps`` counts from the start state.

        A tripped budget raises
        :class:`~repro.core.guardrails.BudgetExceeded` carrying the
        last fully applied iterate ``J⁽ᵗ⁾`` and the delta that was
        still growing — a mid-iteration wall trip never exposes a
        half-merged state, because :meth:`advance` applies a delta
        only after the iteration's contributions are complete.
        """
        budget = self.budget
        trace: List[Instance] = []
        if start is not None:
            delta, new, old = start
        else:
            # J⁽¹⁾ = F(0̄) and δ⁽⁰⁾ = J⁽¹⁾ ⊖ 0̄ = J⁽¹⁾ (b ⊖ 0 = b).
            old = Instance(self.pops)
            try:
                new = self.bootstrap()
            except BudgetExceeded as exc:
                attach_partial(exc, self._partial(old, 0, None, []))
                raise
            # δ⁽⁰⁾ must be its own object: ``advance`` merges later
            # deltas into ``new`` in place, which would grow an aliased
            # δ⁽⁰⁾ under the variants still scanning it.
            delta = new.copy()
            if capture_trace:
                trace = [old.copy(), new.copy()]
            if delta.size() == 0:
                return EvaluationResult(
                    instance=new, steps=1, trace=trace,
                    stats=self.stats.snapshot(),
                )

        for step in range(1, self.max_iterations):
            self.stats.iterations += 1
            try:
                contributions = self.contributions(delta, new, old)
            except BudgetExceeded as exc:
                attach_partial(exc, self._partial(new, step, delta, trace))
                raise
            old = new
            delta, new = self.advance(contributions, new)
            if delta.size() == 0:
                return EvaluationResult(
                    instance=new,
                    steps=step,
                    trace=trace,
                    stats=self.stats.snapshot(),
                )
            if capture_trace:
                trace.append(new.copy())
            if budget is not None:
                try:
                    budget.charge_size(new.size())
                except BudgetExceeded as exc:
                    attach_partial(
                        exc, self._partial(new, step + 1, delta, trace)
                    )
                    raise
        raise BudgetExceeded(
            f"semi-naïve evaluation did not converge within "
            f"{self.max_iterations} iterations",
            resource="iterations",
            limit=self.max_iterations,
            spent=self.max_iterations,
            partial=self._partial(new, self.max_iterations, delta, trace),
            verdict=budget.verdict if budget is not None else None,
        )


def seminaive_fixpoint(
    program: Program,
    database: Database,
    functions: Optional[FunctionRegistry] = None,
    max_iterations: int = 100_000,
    capture_trace: bool = False,
    plan: str = "indexed",
    engine: str = "auto",
    budget: Optional[Budget] = None,
) -> EvaluationResult:
    """Convenience wrapper: build a :class:`SemiNaiveEvaluator`, run it."""
    return SemiNaiveEvaluator(
        program,
        database,
        functions=functions,
        max_iterations=max_iterations,
        plan=plan,
        engine=engine,
        budget=budget,
    ).run(capture_trace=capture_trace)
