"""Valuation enumeration and factor evaluation (the engine's join core).

Grounding (Section 4.3) and direct ICO evaluation both need to iterate
over the valuations ``θ : V → D₀`` of a sum-product body that satisfy
the conditional ``Φ`` (Eq. 13).  Doing this naïvely as ``D₀^|V|`` is the
formal definition; this module additionally supports *guard-driven*
enumeration — joining over the supports of relations whose absent
tuples provably contribute the ⊕-neutral ``0`` — which is the
optimization every real datalog engine performs, and which is sound
exactly when the value space's capability record
(:attr:`pops.caps <repro.semirings.base.PreSemiring.caps>`) says so:

* Boolean-EDB atoms used as factors: absent ⇒ factor ``0``; skipping
  needs ``0`` to absorb, i.e. ``caps.absorbing_zero``.
* POPS-relation atoms, EDB or IDB: absent ⇒ factor ``⊥``; skipping
  additionally needs ``⊥ = 0``, i.e. ``caps.sparse``.
* Atoms under an interpreted function are never skipped (``f(0)`` or
  ``f(⊥)`` may be anything, e.g. ``not(0) = 1`` over THREE).

Positive conjunctive atoms of ``Φ`` itself are always usable as guards:
a valuation violating them fails ``Φ`` outright.  :func:`body_guards`
is the one function that applies these rules; the naïve, semi-naïve
and grounding paths differ only in the guard an IDB occurrence gets.

On top of guard-driven enumeration the indexed plan adds **condition
pushdown** (conjuncts of ``Φ`` applied at the earliest step where their
variables are bound, equality conjuncts turned into direct bindings —
see :mod:`repro.core.pushdown`) and **value-carrying probes** (guards
over POPS supports yield ``(key, value)`` entries so
:class:`FactorEvaluator` evaluates the matching factor without a second
hash lookup).  ``plan="naive"`` keeps the seed behavior untouched as
the differential-testing baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..semirings.base import FunctionRegistry, POPS, Value
from .ast import (
    Condition,
    Constant,
    Valuation,
    Variable,
    condition_holds,
    eval_term,
    positive_bool_atoms,
)
from .indexes import NO_VALUE, IndexManager, JoinStats, KeyIndex
from .instance import Database, Instance, Key
from .pushdown import naive_schedule, run_fallback
from .rules import (
    Factor,
    FuncFactor,
    Indicator,
    KeyAsValue,
    RelAtom,
    SumProduct,
    ValueConst,
    factor_atoms,
)

#: Body-factor position -> the POPS value that rode the probe.
SlotValues = Dict[int, Value]

_NO_SLOTS: SlotValues = {}


#: The single source of truth for the ``plan=`` knob — shared by
#: :func:`repro.core.engine.solve` and the ``--plan`` CLI choices.
VALID_PLANS: Tuple[str, ...] = ("indexed", "indexed-greedy", "naive")


def is_indexed_plan(plan: str) -> bool:
    """Whether a plan name selects the hash-index probe pipeline.

    ``"indexed"`` (cost-based join ordering, the default) and
    ``"indexed-greedy"`` (the PR-1/PR-2 greedy ordering, kept for
    plan-quality differentials) share the whole probe/pushdown
    machinery; only the guard-ordering strategy differs.
    """
    return plan in ("indexed", "indexed-greedy")


def plan_ordering(plan: str) -> str:
    """The :func:`repro.core.planner.build_plan` ordering for a plan."""
    return "greedy" if plan == "indexed-greedy" else "cost"


def plan_body(
    guards: Sequence["Guard"],
    variables: Sequence[str],
    condition: Condition,
    plan: str = "indexed",
    stats: Optional[JoinStats] = None,
    extra_conjuncts: Sequence[Condition] = (),
    bound: Iterable[str] = (),
    n_slots: int = 0,
):
    """Plan one body under an indexed ``plan`` into the Plan IR.

    The one planning call every executor shares: the interpreted
    pipeline (:func:`enumerate_matches`) makes it per rule
    application, the compiled backends
    (:class:`repro.core.kernels.BodyKernels`) once per kernel.
    Returns :func:`repro.core.plan_ir.build_body_plan`'s ``(ir,
    per-guard indexes)`` pair.
    """
    from .plan_ir import build_body_plan  # local: plan_ir → planner → here

    return build_body_plan(
        guards,
        variables=variables,
        condition=condition,
        bound=bound,
        extra_conjuncts=extra_conjuncts,
        order=plan_ordering(plan),
        stats=stats,
        n_slots=n_slots,
    )


@dataclass
class Guard:
    """A generator of candidate bindings: atom args + key supplier.

    ``index`` optionally carries a persistent
    :class:`~repro.core.indexes.KeyIndex` over the same key set (shared
    across enumerations by an :class:`~repro.core.indexes.IndexManager`);
    when absent, the planner builds an ephemeral index from ``keys()``.
    ``name`` identifies the key source for diagnostics and for
    evaluators that refresh indexes between iterations.

    ``slot`` is the body-factor position the guard's atom occupies;
    when ``carries_value`` is set the guard's key source is the *same
    store* factor evaluation would read, so the value stored in the
    index entry may be used directly for that factor (no second hash
    lookup).  Such a guard's ``keys()`` returns the store's support
    *mapping*, so every entry of an index built from it holds a value —
    generated kernels rely on that and read the entry unconditionally.
    Boolean and condition guards stay key-only.
    """

    args: Tuple
    keys: Callable[[], Iterable[Key]]
    name: str = ""
    index: Optional[KeyIndex] = None
    slot: Optional[int] = None
    carries_value: bool = False

    def simple_args(self) -> bool:
        """Whether every argument is a plain variable or constant."""
        return all(isinstance(a, (Variable, Constant)) for a in self.args)


def _unify(args: Tuple, key: Key, valuation: Valuation) -> Optional[Valuation]:
    """Extend ``valuation`` so that ``args`` match ``key``; None on clash."""
    out = valuation
    copied = False
    for arg, val in zip(args, key):
        if isinstance(arg, Constant):
            if arg.value != val:
                return None
        else:  # Variable (guards guarantee simple args)
            bound = out.get(arg.name, _UNSET)
            if bound is _UNSET:
                if not copied:
                    out = dict(out)
                    copied = True
                out[arg.name] = val
            elif bound != val:
                return None
    return out


_UNSET = object()


def enumerate_matches(
    variables: Sequence[str],
    guards: Sequence[Guard],
    fallback_domain: Sequence[Any],
    condition: Condition,
    bool_lookup: Callable[[str, Key], bool],
    base: Optional[Valuation] = None,
    plan: str = "indexed",
    stats: Optional[JoinStats] = None,
    extra_conjuncts: Sequence[Condition] = (),
) -> Iterator[Tuple[Valuation, SlotValues]]:
    """Yield ``(valuation, slot_values)`` for every satisfying valuation.

    ``slot_values`` maps body-factor positions to the POPS values that
    rode the index probes (always empty under ``plan="naive"``).

    Args:
        plan: ``"indexed"`` (default) orders guards by estimated
            selectivity, turns each guard after the first into a
            hash-index probe on its bound columns, pushes the conjuncts
            of ``condition`` (plus ``extra_conjuncts``) down to their
            earliest decidable position, and replaces the fallback
            product with an incremental pruning loop (see
            :mod:`repro.core.planner` / :mod:`repro.core.pushdown`);
            ``"naive"`` keeps the seed behavior — guards in the given
            order, each one a full support scan per candidate binding,
            ``condition`` checked once at the leaf — as the
            differential baseline.  Both produce the same set of
            valuations.
        stats: Optional :class:`~repro.core.indexes.JoinStats` receiving
            probe/scan/pushdown counters.
        extra_conjuncts: Additional engine-proven pushable filters
            (e.g. indicator brackets whose false branch is the
            absorbing ``0``).  Applied only by the indexed plan; the
            naive baseline ignores them and relies on the ``0``
            contributions being ⊕-neutral.
    """
    usable = [g for g in guards if g.simple_args()]
    base_valuation = dict(base) if base else {}

    if is_indexed_plan(plan):
        # Plan once into the backend-neutral IR, then interpret it —
        # the same IR the closure kernels and the codegen backend
        # compile (see :mod:`repro.core.plan_ir`).
        from .planner import execute_ir

        ir, indexes = plan_body(
            usable,
            variables,
            condition,
            plan=plan,
            stats=stats,
            extra_conjuncts=extra_conjuncts,
            bound=base_valuation,
        )
        yield from execute_ir(
            ir,
            usable,
            indexes,
            fallback_domain,
            bool_lookup,
            base=base_valuation,
            stats=stats,
        )
        return
    if plan != "naive":
        raise ValueError(f"unknown join plan {plan!r}")

    counters = stats if stats is not None else JoinStats()
    # Loop-invariant: every usable guard binds all its variables, so
    # the fallback variable list is the same at every leaf.
    guard_bound = {
        arg.name
        for guard in usable
        for arg in guard.args
        if isinstance(arg, Variable)
    }
    remaining = [
        v
        for v in variables
        if v not in base_valuation and v not in guard_bound
    ]
    schedule = naive_schedule(condition, remaining)

    def recurse(i: int, valuation: Valuation) -> Iterator[Tuple[Valuation, SlotValues]]:
        if i == len(usable):
            for candidate in run_fallback(
                valuation,
                schedule.fallback,
                schedule.residual,
                fallback_domain,
                None,
                bool_lookup,
                counters,
            ):
                yield candidate, _NO_SLOTS
            return
        guard = usable[i]
        counters.scans += 1
        for key in guard.keys():
            counters.scanned_keys += 1
            if len(key) != len(guard.args):
                counters.arity_skips += 1
                continue
            extended = _unify(guard.args, key, valuation)
            if extended is not None:
                yield from recurse(i + 1, extended)

    yield from recurse(0, base_valuation)


def enumerate_valuations(
    variables: Sequence[str],
    guards: Sequence[Guard],
    fallback_domain: Sequence[Any],
    condition: Condition,
    bool_lookup: Callable[[str, Key], bool],
    base: Optional[Valuation] = None,
    plan: str = "indexed",
    stats: Optional[JoinStats] = None,
) -> Iterator[Valuation]:
    """Yield every valuation of ``variables`` satisfying ``condition``.

    Bindings are produced by joining the guards; variables not covered
    by any guard range over ``fallback_domain``.  Each valuation is
    yielded exactly once (distinct valuations correspond to distinct
    guard-key/fallback combinations).  This is the valuation-only view
    of :func:`enumerate_matches`.
    """
    for valuation, _slots in enumerate_matches(
        variables,
        guards,
        fallback_domain,
        condition,
        bool_lookup,
        base=base,
        plan=plan,
        stats=stats,
    ):
        yield valuation


def pushable_indicator_conditions(
    body: SumProduct, pops: POPS, total_heads: bool
) -> Tuple[Condition, ...]:
    """Indicator brackets usable as extra pushdown filters.

    A top-level :class:`Indicator` factor whose false branch is the
    semiring ``0`` zeroes the whole ⊗-product whenever its condition
    fails (``0`` absorbs), and a ``0`` summand is ⊕-neutral — so
    valuations falsifying the condition may be *skipped* instead of
    evaluated, provided skipping is unobservable: either every head
    slot is pre-totalized to ``0`` (``total_heads``) or absent and
    ``0`` coincide (``pops.caps.sparse``, where ``⊥ = 0``).  The
    classic win is SSSP's ``[x = source]`` source bracket: the
    equality binds ``x`` directly instead of enumerating the domain.
    """
    caps = pops.caps
    if not caps.absorbing_zero:
        return ()
    if not (total_heads or caps.sparse):
        return ()
    out: List[Condition] = []
    for factor in body.factors:
        if isinstance(factor, Indicator):
            false_value = factor.false_value
            if false_value is None or pops.eq(false_value, pops.zero):
                out.append(factor.condition)
    return tuple(out)


class FactorEvaluator:
    """Evaluates body factors under a valuation (Section 2.4 semantics).

    Lookups default to the POPS bottom for ``σ``/``τ`` relations and to
    ``0``/``1`` for Boolean relations used as factors (the standard
    embedding ``B ↪ P`` via ``{0, 1}``).  When the enumeration supplies
    ``slot_values`` (values that rode the index probes), the matching
    factors are served from them — zero secondary hash lookups on
    probed paths; ``stats`` counts both paths.
    """

    def __init__(
        self,
        pops: POPS,
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        stats: Optional[JoinStats] = None,
    ):
        self.pops = pops
        self.database = database
        self.functions = functions or FunctionRegistry()
        self.stats = stats

    def atom_value(self, atom: RelAtom, valuation: Valuation, idb: Instance, idb_names: frozenset) -> Value:
        """Return the value of a relation atom under a valuation."""
        if self.stats is not None:
            self.stats.factor_lookups += 1
        key = tuple(eval_term(a, valuation) for a in atom.args)
        if atom.relation in idb_names:
            return idb.get(atom.relation, key)
        if atom.relation in self.database.relations:
            # A POPS relation wins over a same-named Boolean one (the
            # stratified evaluator publishes both views of an IDB).
            return self.database.value(atom.relation, key)
        if atom.relation in self.database.bool_relations:
            if self.database.bool_holds(atom.relation, key):
                return self.pops.one
            return self.pops.zero
        return self.database.value(atom.relation, key)

    def factor_value(
        self,
        factor: Factor,
        valuation: Valuation,
        idb: Instance,
        idb_names: frozenset,
    ) -> Value:
        """Evaluate one factor under a valuation."""
        if isinstance(factor, RelAtom):
            return self.atom_value(factor, valuation, idb, idb_names)
        if isinstance(factor, ValueConst):
            return factor.value
        if isinstance(factor, Indicator):
            holds = condition_holds(
                factor.condition, valuation, self.database.bool_holds
            )
            if holds:
                return (
                    factor.true_value
                    if factor.true_value is not None
                    else self.pops.one
                )
            return (
                factor.false_value
                if factor.false_value is not None
                else self.pops.zero
            )
        if isinstance(factor, FuncFactor):
            fn = self.functions.resolve(factor.name)
            args = [
                self.factor_value(sub, valuation, idb, idb_names)
                for sub in factor.args
            ]
            return fn(*args)
        if isinstance(factor, KeyAsValue):
            key = eval_term(factor.term, valuation)
            if factor.convert is None:
                return key
            return self.functions.resolve(factor.convert)(key)
        raise TypeError(f"unknown factor {factor!r}")

    def product_value(
        self,
        body: SumProduct,
        valuation: Valuation,
        idb: Instance,
        idb_names: frozenset,
        slot_values: Optional[SlotValues] = None,
    ) -> Value:
        """Evaluate the ⊗-product of a sum-product body (unit for empty).

        ``slot_values`` (factor position -> probed value) short-circuits
        the store lookup for factors whose value rode an index probe.
        """
        if not slot_values:
            return self.pops.mul_many(
                self.factor_value(f, valuation, idb, idb_names)
                for f in body.factors
            )
        stats = self.stats

        def values() -> Iterator[Value]:
            for i, factor in enumerate(body.factors):
                probed = slot_values.get(i, _UNSET)
                if probed is not _UNSET:
                    if stats is not None:
                        stats.value_probe_hits += 1
                    yield probed
                else:
                    yield self.factor_value(factor, valuation, idb, idb_names)

        return self.pops.mul_many(values())


def variant_store(state: Tuple[Instance, Instance, Instance], rank: int, j: int):
    """Eq. 64's store for the IDB occurrence of rank ``rank`` when
    occurrence ``j`` reads the delta: ``state`` is the ``(new, delta,
    old)`` triple — new before ``j``, delta at it, old after."""
    return state[(rank >= j) + (rank > j)]


class InterpretedKernel:
    """The re-planning reference pipeline behind the body-application
    seam (:class:`repro.core.kernels.BodyKernels`).

    Same contract as the compiled backends — ``run(guards, state,
    bucket)`` ⊕-accumulates every match's ⊗-product into ``bucket``
    under its head key and returns the match count; ``execute(guards,
    emit)`` streams ``emit(valuation, slots)`` per match — but nothing
    is compiled or kept between applications: each one re-plans the
    body (:func:`enumerate_matches`) and evaluates factors through
    :class:`FactorEvaluator`, which is what makes
    ``engine="interpreted"`` the differential baseline.

    ``variant=(idb_positions, j)`` selects the semi-naïve differential
    variant (Theorem 6.5): ``state`` is then the ``(new, delta, old)``
    triple and each IDB occurrence reads the store
    :func:`variant_store` assigns it; every other factor evaluates
    with EDB semantics (empty IDB).
    """

    def __init__(
        self,
        body: SumProduct,
        head_args: Optional[Tuple],
        pops: POPS,
        database: Database,
        functions: Optional[FunctionRegistry],
        idb_names: frozenset,
        fallback_domain: Sequence[Any],
        plan: str,
        stats: Optional[JoinStats] = None,
        extra_conjuncts: Sequence[Condition] = (),
        variant: Optional[Tuple[Sequence[int], int]] = None,
    ):
        self._body = body
        self._head_args = head_args
        self._pops = pops
        self._bool_lookup = database.bool_holds
        self._idb_names = idb_names
        self._domain = fallback_domain
        self._plan = plan
        self._stats = stats
        self._extra = extra_conjuncts
        self._variant = variant
        self._variables = body.enumeration_order()
        self._evaluator = FactorEvaluator(pops, database, functions, stats=stats)
        #: The empty IDB a variant's non-occurrence factors evaluate
        #: against (never written).
        self._empty = Instance(pops)

    def install_poll(self, poll) -> None:
        """No prologue to arm: the evaluators poll once per
        application, before they call :meth:`run`."""

    def _matches(self, guards: Sequence[Guard]):
        return enumerate_matches(
            self._variables,
            guards,
            self._domain,
            self._body.condition,
            self._bool_lookup,
            plan=self._plan,
            stats=self._stats,
            extra_conjuncts=self._extra,
        )

    def execute(self, guards: Sequence[Guard], emit: Callable) -> None:
        n_slots = len(self._body.factors)
        for valuation, slot_values in self._matches(guards):
            slots = [NO_VALUE] * n_slots
            for i, value in slot_values.items():
                slots[i] = value
            emit(valuation, slots)

    def run(self, guards: Sequence[Guard], state, bucket: Dict[Key, Value]) -> int:
        body, head_args, add = self._body, self._head_args, self._pops.add
        product_value = self._evaluator.product_value
        idb_names, plain = self._idb_names, self._variant is None
        matched = 0
        for valuation, slot_values in self._matches(guards):
            matched += 1
            if plain:
                value = product_value(
                    body, valuation, state, idb_names, slot_values=slot_values
                )
            else:
                value = self._variant_value(valuation, state, slot_values)
            head_key = tuple(eval_term(t, valuation) for t in head_args)
            if head_key in bucket:
                bucket[head_key] = add(bucket[head_key], value)
            else:
                bucket[head_key] = value
        return matched

    def _variant_value(
        self, valuation: Valuation, state, slot_values: SlotValues
    ) -> Value:
        """One differential variant's ⊗-product; ``slot_values`` come
        only from guards whose index covers the variant's own store."""
        idb_positions, j = self._variant
        stats = self._stats
        acc = self._pops.one
        rank = 0
        for i, factor in enumerate(self._body.factors):
            occurrence = i in idb_positions
            if i in slot_values:
                value = slot_values[i]
                if stats is not None:
                    stats.value_probe_hits += 1
            elif occurrence:
                key = tuple(eval_term(a, valuation) for a in factor.args)
                value = variant_store(state, rank, j).get(factor.relation, key)
                if stats is not None:
                    stats.factor_lookups += 1
            else:
                value = self._evaluator.factor_value(
                    factor, valuation, self._empty, frozenset()
                )
            rank += occurrence
            acc = self._pops.mul(acc, value)
        return acc


#: Builds the guard an IDB occurrence drives enumeration with —
#: ``idb_guard(atom, slot)`` for the atom at body-factor ``slot`` — or
#: returns ``None`` when IDB atoms must not drive it.
IdbGuard = Callable[[RelAtom, int], Optional[Guard]]


def no_idb_guards(atom: RelAtom, slot: int) -> None:
    """The :data:`IdbGuard` of grounding, where IDB atoms stay
    symbolic and never drive enumeration."""
    return None


def late_idb_guards(
    supplier: Callable[[str], Callable[[], Iterable[Key]]]
) -> IdbGuard:
    """The :data:`IdbGuard` whose guards read ``supplier(relation)`` at
    enumeration time (late binding — the instance changes between
    iterations).  Suppliers returning a ``Mapping`` make the guard
    value-carrying; evaluators refresh its index per iteration via
    :func:`refresh_guard_indexes`."""

    def idb_guard(atom: RelAtom, slot: int) -> Guard:
        return Guard(
            args=atom.args,
            keys=supplier(atom.relation),
            name=f"idb:{atom.relation}",
            slot=slot,
            carries_value=True,
        )

    return idb_guard


def body_guards(
    body: SumProduct,
    pops: POPS,
    database: Database,
    idb_names: frozenset,
    idb_guard: IdbGuard,
    indexes: Optional[IndexManager] = None,
) -> List[Guard]:
    """Build the guard list for a body under the soundness rules above.

    The one place that decides which atoms drive enumeration, in this
    order (the planner breaks cost ties by it): the condition's
    positive Boolean atoms; then, per body factor, every atom not under
    an interpreted function — Boolean stores when ``0`` absorbs
    (``pops.caps.absorbing_zero``), POPS stores when absent and ``0``
    coincide (``pops.caps.sparse``).  Evaluators differ only in how an
    IDB occurrence reads, which ``idb_guard`` decides.

    Args:
        body: The sum-product to plan.
        pops: The value space (its :attr:`caps` decide eligibility).
        database: EDB store (supports drive EDB guards).
        idb_names: IDB relation names.
        idb_guard: The guard of one IDB occurrence (``None``: it does
            not drive enumeration) — :func:`late_idb_guards` for the
            naïve evaluator, :func:`no_idb_guards` for grounding, the
            Eq. 64 variant store for semi-naïve.  Asked only when the
            POPS is sparse.
        indexes: Optional :class:`~repro.core.indexes.IndexManager`;
            when given, guards over EDB stores carry this manager's
            view of the index the database owns (:meth:`Database.index
            <repro.core.instance.Database.index>` — built once per
            database, shared across rule bodies, fixpoint iterations
            and solves).  So do guards over Boolean stores, which are
            frozen for an evaluator's lifetime.
    """

    def _edb_guard(args: Tuple, relation: str, slot: Optional[int]) -> Guard:
        support = database.support(relation)
        index = None
        if indexes is not None:
            index = indexes.frozen(("edb", relation), database.index(relation))
        return Guard(
            args=args,
            keys=lambda s=support: s,
            name=f"edb:{relation}",
            index=index,
            slot=slot,
            carries_value=True,
        )

    def _bool_guard(args: Tuple, relation: str) -> Guard:
        rel = database.bool_relations.get(relation, frozenset())
        name = f"bool:{relation}"
        index = None
        if indexes is not None:
            index = indexes.frozen(("bool", name), database.bool_index(relation))
        return Guard(args=args, keys=lambda r=rel: r, name=name, index=index)

    caps = pops.caps
    guards: List[Guard] = []
    for atom in positive_bool_atoms(body.condition):
        guards.append(_bool_guard(atom.args, atom.relation))
    for slot, factor in enumerate(body.factors):
        for atom, under_fn in factor_atoms(factor):
            if under_fn:
                continue
            if atom.relation in idb_names:
                guard = idb_guard(atom, slot) if caps.sparse else None
                if guard is not None:
                    guards.append(guard)
            elif atom.relation in database.relations:
                # A POPS relation wins over a same-named Boolean one
                # (a frozen stratum publishes both views of an IDB).
                if caps.sparse:
                    guards.append(_edb_guard(atom.args, atom.relation, slot))
            elif atom.relation in database.bool_relations:
                if caps.absorbing_zero:
                    guards.append(_bool_guard(atom.args, atom.relation))
            elif caps.sparse:
                guards.append(_edb_guard(atom.args, atom.relation, slot))
    return guards


def refresh_guard_indexes(
    guards: Iterable[Guard],
    indexes: IndexManager,
    epoch: Hashable,
    versions: Optional[Dict[str, Hashable]] = None,
    stats: Optional[JoinStats] = None,
) -> None:
    """Point dynamic guards at up-to-date indexes before an iteration.

    IDB guards read the evaluator's *current* instance, which changes
    between iterations: their index entry is versioned by the caller's
    ``epoch`` so the support is materialized at most once per iteration
    per relation, shared by every body mentioning it (rebuilt indexes
    inherit decayed probe observations, keeping selectivity estimates
    adaptive).  When ``versions`` maps a relation name to a
    *per-relation* change counter, that counter is used instead of the
    global epoch: a relation the last delta did not touch keeps its
    existing index (and its accumulated probe observations) instead of
    being rebuilt — the caller counts those skips in
    ``JoinStats.rebuild_skips``.  Boolean stores are frozen for an
    evaluator's lifetime, so Boolean guards carry the database's index
    (:func:`body_guards`) and are never refreshed; when ``stats`` is
    given, each such skip is counted in ``stats.rebuild_skips``.  EDB
    guards carry the database's index too.
    """
    for guard in guards:
        if guard.name.startswith("idb:"):
            relation = guard.name[4:]
            version = epoch if versions is None else versions.get(relation, epoch)
            guard.index = indexes.get(
                ("idb", guard.name), guard.keys, version=version
            )
        elif stats is not None and guard.name.startswith("bool:"):
            stats.rebuild_skips += 1
