"""Compiled join kernels: each (rule, body) plan lowered to closures.

The interpreted pipeline (:func:`repro.core.valuations.enumerate_matches`
→ :func:`repro.core.plan_ir.build_body_plan` →
:func:`repro.core.planner.execute_ir`) re-plans
every body on **every rule application** and walks the plan with
per-candidate dict copies, per-step ``isinstance`` dispatch and
per-factor semiring attribute lookups.  None of that work depends on
the iteration — the guard structure, join order, probe masks, pushdown
placement and factor shapes of a body are fixed for an evaluator's
lifetime — so this module compiles it exactly once per (rule, body[,
delta-variant]) and caches the result for every later fixpoint
iteration (the cache lives in the evaluator, i.e. one cache **per
stratum** under the SCC scheduler).

What gets compiled:

* **the join pipeline** — one nested closure per plan step: probe-value
  extraction, key unification (reduced to *fresh-bind* and
  *duplicate-check* positions only — masked positions are guaranteed
  equal by the probe itself), pushed-down filters, and the incremental
  fallback loop, all specialized against the concrete arg shapes;
* **conditions and terms** — ``Φ``-conjuncts and head/probe terms become
  closure trees with comparison operators and the Boolean-store oracle
  resolved at compile time (no ``condition_holds`` interpretive walk);
* **factor evaluation** — each body factor becomes one value getter
  (store lookup, constant, indicator, interpreted function, …) with the
  semiring ``⊗`` bound into a local; factors whose guard carries values
  read the probe's ``[key, value]`` entry instead of re-hashing.

The hot loop therefore does zero interpretive dispatch: it runs
pre-resolved closures over one shared mutable valuation dict (no
per-candidate copies — the step chain is fixed, so every leaf rebinds
every variable on its path before anything reads it).

Index objects are *not* baked in: evaluators replace guard indexes
between iterations (:func:`repro.core.valuations.refresh_guard_indexes`,
semi-naïve delta rebuilds), so the kernel re-resolves ``guard.index``
in a per-invocation prologue and binds the probe methods into closure
locals there.  Work counters are accumulated in local integers and
flushed to :class:`~repro.core.indexes.JoinStats` once per invocation,
keeping the counters' meanings identical to the interpreted engine's.

This module is also where the engines meet the evaluators.
:class:`BodyKernels` is the **body-application seam**: an evaluator
asks it for the kernel of one (rule, body[, Eq. 64 variant]) and calls
``kernel.run(guards, state, bucket)`` once per application, whatever
the engine — the interpreted re-planning pipeline
(:class:`repro.core.valuations.InterpretedKernel`), this module's
closures (:class:`ClosureKernel`), generated source
(:mod:`repro.core.codegen`) or columnar batches
(:mod:`repro.core.batched`).  A backend is one class with that
contract plus one line in ``_BACKENDS``; nothing outside this module
names a backend's constructor.  ``engine="interpreted"`` keeps the
PR-3 path byte-for-byte as the differential baseline; the test suite
checks compiled == interpreted fixpoints across value spaces and
program shapes.
"""

from __future__ import annotations

import importlib
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..semirings.base import FunctionRegistry, POPS, Value
from .ast import (
    And,
    BoolAtom,
    Compare,
    Condition,
    Constant,
    KeyFunc,
    Not,
    Or,
    Term,
    TrueCond,
    Valuation,
    Variable,
    _COMPARATORS,
)
from .indexes import NO_VALUE, JoinStats, KeyIndex
from .instance import Database, Instance
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
from .valuations import Guard, InterpretedKernel, is_indexed_plan, plan_body

#: ``emit(valuation, slots)`` — the kernel's leaf callback.  ``slots``
#: is the kernel-owned list of per-factor carried values (``NO_VALUE``
#: where nothing rode the probe); both arguments are reused across
#: emissions and must not be retained.
Emit = Callable[[Valuation, List[Any]], None]

_EMPTY_BUCKET: Tuple = ()


# ---------------------------------------------------------------------------
# Term / condition compilation
# ---------------------------------------------------------------------------


def compile_term(term: Term) -> Callable[[Valuation], Any]:
    """Compile a key term into a closure over the valuation."""
    if isinstance(term, Variable):
        name = term.name
        return lambda valu: valu[name]
    if isinstance(term, Constant):
        value = term.value
        return lambda valu, _v=value: _v
    if isinstance(term, KeyFunc):
        fn = term.fn
        arg_fns = tuple(compile_term(a) for a in term.args)
        return lambda valu: fn(*(g(valu) for g in arg_fns))
    raise TypeError(f"unknown term {term!r}")


def compile_key(terms_: Sequence[Term]) -> Callable[[Valuation], Tuple]:
    """Compile a term tuple (head args, probe args) into one getter.

    Arities 0–3 get unrolled closures, and all-variable keys — the
    common case in every benchmark body — read the valuation directly,
    so the hot loop pays one call and one tuple display per key
    instead of a generator expression over per-term closures.
    """
    if all(isinstance(t, Variable) for t in terms_):
        names = tuple(t.name for t in terms_)
        if not names:
            return lambda valu: ()
        if len(names) == 1:
            n0 = names[0]
            return lambda valu: (valu[n0],)
        if len(names) == 2:
            n0, n1 = names
            return lambda valu: (valu[n0], valu[n1])
        if len(names) == 3:
            n0, n1, n2 = names
            return lambda valu: (valu[n0], valu[n1], valu[n2])
        return lambda valu: tuple(valu[n] for n in names)
    fns = tuple(compile_term(t) for t in terms_)
    if len(fns) == 1:
        g0 = fns[0]
        return lambda valu: (g0(valu),)
    if len(fns) == 2:
        g0, g1 = fns
        return lambda valu: (g0(valu), g1(valu))
    if len(fns) == 3:
        g0, g1, g2 = fns
        return lambda valu: (g0(valu), g1(valu), g2(valu))
    return lambda valu: tuple(g(valu) for g in fns)


def compile_condition(
    cond: Condition, bool_lookup: Callable[[str, Tuple], bool]
) -> Optional[Callable[[Valuation], bool]]:
    """Compile ``Φ`` into a closure; ``None`` means trivially true."""
    if isinstance(cond, TrueCond):
        return None
    if isinstance(cond, Compare):
        op = _COMPARATORS[cond.op]
        left = compile_term(cond.left)
        right = compile_term(cond.right)
        return lambda valu: op(left(valu), right(valu))
    if isinstance(cond, BoolAtom):
        relation = cond.relation
        arg_fns = tuple(compile_term(a) for a in cond.args)
        return lambda valu: bool_lookup(
            relation, tuple(g(valu) for g in arg_fns)
        )
    if isinstance(cond, Not):
        inner = compile_condition(cond.inner, bool_lookup)
        if inner is None:
            return lambda valu: False
        return lambda valu: not inner(valu)
    if isinstance(cond, (And, Or)):
        parts = tuple(
            fn
            for fn in (
                compile_condition(p, bool_lookup) for p in cond.parts
            )
            if fn is not None
        )
        if isinstance(cond, And):
            if not parts:
                return None
            if len(parts) == 1:
                return parts[0]
            return lambda valu: all(fn(valu) for fn in parts)
        if len(parts) < len(cond.parts):
            return None  # a trivially-true disjunct makes the Or true
        if len(parts) == 1:
            return parts[0]
        return lambda valu: any(fn(valu) for fn in parts)
    raise TypeError(f"unknown condition node {cond!r}")


def _compile_filters(
    conditions: Sequence[Condition],
    bool_lookup: Callable[[str, Tuple], bool],
) -> Tuple[Callable[[Valuation], bool], ...]:
    return tuple(
        fn
        for fn in (compile_condition(c, bool_lookup) for c in conditions)
        if fn is not None
    )


# ---------------------------------------------------------------------------
# Factor compilation (the ⊗-product of a body)
# ---------------------------------------------------------------------------


def _compile_factor(
    factor: Factor,
    pops: POPS,
    database: Database,
    functions: FunctionRegistry,
    idb_names: frozenset,
    bool_lookup: Callable[[str, Tuple], bool],
) -> Tuple[Callable[[Valuation, Instance], Value], int]:
    """Compile one factor into ``(valuation, idb) -> value``.

    Returns the getter plus the number of store lookups one evaluation
    pays (the ``factor_lookups`` counter's unit: one per
    :class:`RelAtom` read, including atoms nested under interpreted
    functions — matching ``FactorEvaluator.atom_value`` exactly).  The
    store routing mirrors ``FactorEvaluator.atom_value``: IDB wins,
    then POPS EDB, then the Boolean embedding, then the ``⊥`` default.
    """
    if isinstance(factor, RelAtom):
        relation = factor.relation
        key_fns = tuple(compile_term(a) for a in factor.args)
        if relation in idb_names:
            return (
                lambda valu, idb: idb.get(
                    relation, tuple(g(valu) for g in key_fns)
                ),
                1,
            )
        store = database.raw_support(relation)
        if store is not None:
            bottom = pops.bottom
            return (
                lambda valu, idb: store.get(
                    tuple(g(valu) for g in key_fns), bottom
                ),
                1,
            )
        if relation in database.bool_relations:
            store = database.bool_relations[relation]
            one, zero = pops.one, pops.zero
            return (
                lambda valu, idb: (
                    one if tuple(g(valu) for g in key_fns) in store else zero
                ),
                1,
            )
        bottom = pops.bottom
        empty: Dict = {}
        return (
            lambda valu, idb: database.relations.get(relation, empty).get(
                tuple(g(valu) for g in key_fns), bottom
            ),
            1,
        )
    if isinstance(factor, ValueConst):
        value = factor.value
        return (lambda valu, idb, _v=value: _v), 0
    if isinstance(factor, Indicator):
        cond_fn = compile_condition(factor.condition, bool_lookup)
        true_value = (
            factor.true_value if factor.true_value is not None else pops.one
        )
        false_value = (
            factor.false_value if factor.false_value is not None else pops.zero
        )
        if cond_fn is None:
            return (lambda valu, idb, _v=true_value: _v), 0
        return (
            lambda valu, idb: true_value if cond_fn(valu) else false_value,
            0,
        )
    if isinstance(factor, FuncFactor):
        fn = functions.resolve(factor.name)
        sub_fns = tuple(
            _compile_factor(
                sub, pops, database, functions, idb_names, bool_lookup
            )[0]
            for sub in factor.args
        )
        return (
            lambda valu, idb: fn(*(g(valu, idb) for g in sub_fns)),
            sum(1 for _atom in factor_atoms(factor)),
        )
    if isinstance(factor, KeyAsValue):
        term_fn = compile_term(factor.term)
        if factor.convert is None:
            return (lambda valu, idb: term_fn(valu)), 0
        convert = functions.resolve(factor.convert)
        return (lambda valu, idb: convert(term_fn(valu))), 0
    raise TypeError(f"unknown factor {factor!r}")


class BodyValue:
    """Compiled ⊗-product of a body's factors.

    ``__call__(valuation, slots, idb)`` multiplies the per-factor
    values, serving factors whose carried probe value landed in
    ``slots`` without a store lookup.  ``value_probe_hits`` /
    ``factor_lookups`` are accumulated locally and flushed by the
    caller via :meth:`flush`.
    """

    __slots__ = ("_pieces", "_mul", "_one", "hits", "lookups")

    def __init__(
        self,
        body: SumProduct,
        pops: POPS,
        database: Database,
        functions: FunctionRegistry,
        idb_names: frozenset,
        bool_lookup: Callable[[str, Tuple], bool],
        carried_slots: frozenset,
    ):
        self._pieces: List[Tuple[int, bool, Callable, int]] = []
        for i, factor in enumerate(body.factors):
            fn, lookups = _compile_factor(
                factor, pops, database, functions, idb_names, bool_lookup
            )
            self._pieces.append((i, i in carried_slots, fn, lookups))
        self._mul = pops.mul
        self._one = pops.one
        self.hits = 0
        self.lookups = 0

    def __call__(self, valu: Valuation, slots: List[Any], idb: Instance) -> Value:
        acc = self._one
        mul = self._mul
        for i, carried, fn, lookups in self._pieces:
            if carried:
                value = slots[i]
                if value is not NO_VALUE:
                    self.hits += 1
                    acc = mul(acc, value)
                    continue
            if lookups:
                self.lookups += lookups
            acc = mul(acc, fn(valu, idb))
        return acc

    def flush(self, stats: Optional[JoinStats]) -> None:
        if stats is not None:
            stats.value_probe_hits += self.hits
            stats.factor_lookups += self.lookups
        self.hits = 0
        self.lookups = 0


class VariantValue:
    """Compiled ⊗-product of one semi-naïve differential variant.

    Occurrence factors read the store Eq. 64 assigns them — ``new``
    before the delta occurrence, ``delta`` at it, ``old`` after —
    resolved per invocation via the ``(new, delta, old)`` triple, with
    the rank-vs-``j`` routing compiled away.  Non-occurrence factors
    evaluate exactly like the interpreted ``_variant_value`` (EDB
    semantics, empty IDB).  Carried probe values serve the slots whose
    guard index covers the variant's own store.
    """

    __slots__ = ("_pieces", "_mul", "_one", "hits", "lookups")

    def __init__(
        self,
        body: SumProduct,
        idb_positions: Sequence[int],
        j: int,
        pops: POPS,
        database: Database,
        functions: FunctionRegistry,
        bool_lookup: Callable[[str, Tuple], bool],
        carried_slots: frozenset,
    ):
        self._pieces: List[Tuple[int, bool, Callable, int]] = []
        for i, factor in enumerate(body.factors):
            if isinstance(factor, RelAtom) and i in idb_positions:
                rank = idb_positions.index(i)
                store_pos = 0 if rank < j else (1 if rank == j else 2)
                relation = factor.relation
                key_fns = tuple(compile_term(a) for a in factor.args)

                def occurrence(
                    valu, stores, _p=store_pos, _r=relation, _k=key_fns
                ):
                    return stores[_p].get(_r, tuple(g(valu) for g in _k))

                self._pieces.append(
                    (i, i in carried_slots, occurrence, 1)
                )
            else:
                fn, lookups = _compile_factor(
                    factor, pops, database, functions, frozenset(), bool_lookup
                )
                self._pieces.append(
                    (
                        i,
                        i in carried_slots,
                        lambda valu, stores, _f=fn: _f(valu, None),
                        lookups,
                    )
                )
        self._mul = pops.mul
        self._one = pops.one
        self.hits = 0
        self.lookups = 0

    def __call__(
        self,
        valu: Valuation,
        slots: List[Any],
        stores: Tuple[Instance, Instance, Instance],
    ) -> Value:
        acc = self._one
        mul = self._mul
        for i, carried, fn, lookups in self._pieces:
            if carried:
                value = slots[i]
                if value is not NO_VALUE:
                    self.hits += 1
                    acc = mul(acc, value)
                    continue
            if lookups:
                self.lookups += lookups
            acc = mul(acc, fn(valu, stores))
        return acc

    def flush(self, stats: Optional[JoinStats]) -> None:
        if stats is not None:
            stats.value_probe_hits += self.hits
            stats.factor_lookups += self.lookups
        self.hits = 0
        self.lookups = 0


# ---------------------------------------------------------------------------
# The compiled join pipeline
# ---------------------------------------------------------------------------


class _StepSpec:
    """Pre-resolved shape of one plan step (see ``compile_kernel``)."""

    __slots__ = (
        "guard_pos",
        "mask",
        "probe_key",
        "arity",
        "binds",
        "dups",
        "filters",
        "slot",
    )

    def __init__(self, guard_pos, mask, probe_key, arity, binds, dups, filters, slot):
        self.guard_pos = guard_pos
        self.mask = mask
        self.probe_key = probe_key  # compiled (valuation) -> probe tuple
        self.arity = arity
        self.binds = binds  # ((key position, variable name), …) fresh binds
        self.dups = dups  # ((key position, earlier position), …) dup checks
        self.filters = filters
        self.slot = slot


class _FallbackSpec:
    __slots__ = ("var", "binding", "filters")

    def __init__(self, var, binding, filters):
        self.var = var
        self.binding = binding
        self.filters = filters


class CompiledKernel:
    """One body's join pipeline, compiled once and re-run per iteration.

    ``execute(guards, emit)`` re-resolves the (possibly refreshed)
    guard indexes, binds their probe methods into closure locals and
    streams every satisfying valuation into ``emit`` — the valuation
    dict and slot list are owned by the kernel and reused, so consumers
    must copy whatever they retain.  The valuation stream is identical
    to the interpreted ``enumerate_matches`` (same plan, same pushdown
    schedule, same fallback semantics); only the dispatch is gone.
    """

    def __init__(
        self,
        steps: List[_StepSpec],
        fallback: List[_FallbackSpec],
        residual: Tuple[Callable, ...],
        prefix_filters: Tuple[Callable, ...],
        initial_bindings: Tuple[Tuple[str, Callable, bool], ...],
        domain: Tuple[Any, ...],
        domain_set: Optional[frozenset],
        n_slots: int,
        stats: Optional[JoinStats],
        label: str = "join",
    ):
        self.label = label
        self._steps = steps
        self._fallback = fallback
        self._residual = residual
        self._prefix_filters = prefix_filters
        self._initial_bindings = initial_bindings
        self._domain = domain
        self._domain_set = domain_set
        self._n_slots = n_slots
        self._stats = stats
        #: Optional budget poll (see repro.core.guardrails.Budget):
        #: checked once per rule application in the execute prologue,
        #: so a wall budget interrupts even a single runaway iteration.
        self.poll = None

    def install_poll(self, poll) -> None:
        """Arm the kernel with a budget poll hook (``None`` = unarmed)."""
        self.poll = poll

    # ------------------------------------------------------------------
    def execute(self, guards: Sequence[Guard], emit: Emit) -> None:
        """Run the pipeline against the current guard indexes.

        The prologue re-resolves each step's index, binds its probe
        method and the step's compiled pieces into closure locals, and
        links the steps innermost-first into one call chain — the hot
        loop then runs nothing but local closure calls.  ``emit`` is
        called once per match (consumers count their own matches); the
        join counters flush into the kernel's
        :class:`~repro.core.indexes.JoinStats` exactly once.
        """
        if self.poll is not None:
            self.poll()
        stats = self._stats
        # Per-invocation counter cells: [probes, probed, scans, scanned,
        # arity_skips, prunes, fb_candidates, fb_extensions, eq_binds].
        ctr = [0] * 9
        valu: Valuation = {}
        slots: List[Any] = [NO_VALUE] * self._n_slots

        domain = self._domain
        domain_set = self._domain_set
        residual = self._residual
        fallback = self._fallback

        if fallback or residual:
            n_fallback = len(fallback)

            def run_fallback(depth: int) -> None:
                # The cold path: guard-complete bodies never enter it.
                if depth == n_fallback:
                    for cond in residual:
                        if not cond(valu):
                            ctr[5] += 1
                            return
                    emit(valu, slots)
                    return
                spec = fallback[depth]
                last = depth == n_fallback - 1
                if spec.binding is not None:
                    value = spec.binding(valu)
                    ctr[8] += 1
                    if domain_set is not None and value not in domain_set:
                        return
                    candidates: Sequence = (value,)
                else:
                    candidates = domain
                var = spec.var
                filters = spec.filters
                for value in candidates:
                    valu[var] = value
                    if last:
                        ctr[6] += 1
                    else:
                        ctr[7] += 1
                    pruned = False
                    for cond in filters:
                        if not cond(valu):
                            ctr[5] += 1
                            pruned = True
                            break
                    if not pruned:
                        run_fallback(depth + 1)

            inner: Callable[[], None] = lambda: run_fallback(0)
            tail_emit: Optional[Emit] = None
        else:
            # No fallback tail: the innermost step calls ``emit``
            # directly — the consumer counts its own matches, so no
            # per-match frame sits between the join loop and it.
            inner = lambda: emit(valu, slots)  # noqa: E731
            tail_emit = emit

        # Link the steps innermost-first: each layer resolves the
        # current index (guards may have been refreshed since the last
        # invocation) and closes over its probe method, compiled key
        # getter, bind/dup specs and filters as locals.
        innermost = True
        for spec in reversed(self._steps):
            guard = guards[spec.guard_pos]
            index = guard.index
            if index is None:
                index = KeyIndex(guard.keys(), stats=stats)
            inner = self._link_step(
                spec, index, inner, valu, slots, ctr,
                emit=tail_emit if innermost else None,
            )
            innermost = False

        ok = True
        for var, term_fn, check_domain in self._initial_bindings:
            value = term_fn(valu)
            ctr[8] += 1
            if check_domain and domain_set is not None and value not in domain_set:
                ok = False
                break
            valu[var] = value
        if ok:
            for cond in self._prefix_filters:
                if not cond(valu):
                    ctr[5] += 1
                    ok = False
                    break
        if ok:
            inner()

        if stats is not None:
            stats.probes += ctr[0]
            stats.probed_keys += ctr[1]
            stats.scans += ctr[2]
            stats.scanned_keys += ctr[3]
            stats.arity_skips += ctr[4]
            stats.pushdown_prunes += ctr[5]
            stats.fallback_candidates += ctr[6]
            stats.fallback_extensions += ctr[7]
            stats.equality_bindings += ctr[8]

    @staticmethod
    def _link_step(
        spec: _StepSpec,
        index: KeyIndex,
        inner: Callable[[], None],
        valu: Valuation,
        slots: List[Any],
        ctr: List[int],
        emit: Optional[Emit] = None,
    ) -> Callable[[], None]:
        """One pipeline layer with everything bound into closure locals.

        ``emit`` marks the innermost layer of a fallback-free pipeline:
        its loop calls the consumer directly instead of going through
        a zero-arg ``inner`` trampoline — one call frame per match
        saved on the hottest line of the engine.
        """
        arity = spec.arity
        binds = spec.binds
        dups = spec.dups
        filters = spec.filters
        slot = spec.slot
        mask = spec.mask
        probe_key = spec.probe_key

        if mask:
            # Bind the mask table's ``dict.get`` directly: compiled
            # plans are frozen, so the per-probe observation feedback
            # ``probe_entries`` maintains (hit rates for adaptive
            # re-ordering) has no consumer here.
            bucket_of = index.mask_table(mask).get

            def candidates() -> Sequence:
                found = bucket_of(probe_key(valu), _EMPTY_BUCKET)
                ctr[0] += 1
                ctr[1] += len(found)
                return found

        else:
            entries = index.entries()

            def candidates() -> Sequence:
                ctr[2] += 1
                ctr[3] += len(entries)
                return entries

        # The fully-specialized common shape — one fresh variable, no
        # duplicate checks, no filters, value-carrying — gets its own
        # tight loop; everything else takes the general layer.
        if len(binds) == 1 and not dups and not filters and slot is not None:
            pos, name = binds[0]

            if emit is not None:

                def emit_single() -> None:
                    for entry in candidates():
                        key = entry[0]
                        if len(key) != arity:
                            ctr[4] += 1
                            continue
                        valu[name] = key[pos]
                        slots[slot] = entry[1]
                        emit(valu, slots)

                return emit_single

            def run_single() -> None:
                for entry in candidates():
                    key = entry[0]
                    if len(key) != arity:
                        ctr[4] += 1
                        continue
                    valu[name] = key[pos]
                    slots[slot] = entry[1]
                    inner()

            return run_single

        def run() -> None:
            for entry in candidates():
                key = entry[0]
                if len(key) != arity:
                    ctr[4] += 1
                    continue
                if dups:
                    bad = False
                    for pos, first in dups:
                        if key[pos] != key[first]:
                            bad = True
                            break
                    if bad:
                        continue
                for pos, name in binds:
                    valu[name] = key[pos]
                if filters:
                    pruned = False
                    for cond in filters:
                        if not cond(valu):
                            ctr[5] += 1
                            pruned = True
                            break
                    if pruned:
                        continue
                if slot is not None:
                    slots[slot] = entry[1]
                if emit is None:
                    inner()
                else:
                    emit(valu, slots)

        return run


def compile_kernel(
    ir,
    bool_lookup: Callable[[str, Tuple], bool],
    fallback_domain: Sequence[Any],
    stats: Optional[JoinStats] = None,
    label: str = "join",
) -> CompiledKernel:
    """Compile a :class:`~repro.core.plan_ir.BodyPlanIR` into closures.

    The closure backend of the Plan IR, and its emit-mode constructor
    (same signature as :func:`repro.core.codegen.generate_join_kernel`):
    every IR node becomes its pre-resolved closure shape — probe keys
    via :func:`compile_key`, filters/residual via
    :func:`compile_condition`, the fresh-bind / dup-check positions
    taken from the IR verbatim.  The plan is the one the first
    iteration's selectivity estimates produced, frozen for the run;
    index objects are *not* baked in — :meth:`CompiledKernel.execute`
    re-resolves ``guards[step.guard_pos].index`` per invocation, so
    later guard lists only have to be structurally identical (same
    relations in the same positions), which every evaluator's per-body
    guard construction guarantees.
    """
    step_specs: List[_StepSpec] = [
        _StepSpec(
            guard_pos=step.guard_pos,
            mask=step.mask,
            probe_key=compile_key(step.probe_args),
            arity=step.arity,
            binds=step.binds,
            dups=step.dups,
            filters=_compile_filters(step.filters, bool_lookup),
            slot=step.slot,
        )
        for step in ir.steps
    ]
    fallback_specs = [
        _FallbackSpec(
            var=fb.var,
            binding=None if fb.binding is None else compile_term(fb.binding),
            filters=_compile_filters(fb.filters, bool_lookup),
        )
        for fb in ir.fallback
    ]
    needs_domain_set = ir.needs_domain_set or any(
        fb.binding is not None for fb in ir.fallback
    )
    return CompiledKernel(
        steps=step_specs,
        fallback=fallback_specs,
        residual=_compile_filters(ir.residual, bool_lookup),
        prefix_filters=_compile_filters(ir.prefix_filters, bool_lookup),
        initial_bindings=tuple(
            (var, compile_term(term), check)
            for var, term, check in ir.initial_bindings
        ),
        domain=tuple(fallback_domain),
        domain_set=frozenset(fallback_domain) if needs_domain_set else None,
        n_slots=ir.n_slots,
        stats=stats,
        label=label,
    )


class ClosureKernel:
    """The closure backend's accumulate-mode kernel.

    Constructor and ``run`` contract of
    :func:`repro.core.codegen.generate_rule_kernel`: ``run(guards,
    state, bucket)`` streams the :class:`CompiledKernel` join into a
    leaf that multiplies the compiled factor getters
    (:class:`BodyValue`, or :class:`VariantValue` when ``variant``
    gives the Eq. 64 occurrence assignment and ``state`` is the
    ``(new, delta, old)`` triple), ⊕-accumulates the product into
    ``bucket`` under the compiled head key and returns the match
    count.
    """

    def __init__(
        self,
        ir,
        body: SumProduct,
        head_args: Tuple[Term, ...],
        pops: POPS,
        database: Database,
        functions: FunctionRegistry,
        idb_names: frozenset,
        bool_lookup: Callable[[str, Tuple], bool],
        carried_slots: frozenset,
        fallback_domain: Sequence[Any],
        stats: Optional[JoinStats] = None,
        variant: Optional[Tuple[Sequence[int], int]] = None,
        label: str = "rule",
    ):
        self._kernel = compile_kernel(
            ir, bool_lookup, fallback_domain, stats=stats, label=label
        )
        if variant is None:
            self._value = BodyValue(
                body, pops, database, functions, idb_names, bool_lookup,
                carried_slots,
            )
        else:
            idb_positions, j = variant
            self._value = VariantValue(
                body, idb_positions, j, pops, database, functions,
                bool_lookup, carried_slots,
            )
        self._head_key = compile_key(head_args)
        self._add = pops.add
        self._stats = stats
        self.install_poll = self._kernel.install_poll

    def run(self, guards: Sequence[Guard], state, bucket: Dict[Tuple, Value]) -> int:
        value_fn, head_key, add = self._value, self._head_key, self._add
        matched = 0

        def emit(valu, slots):
            nonlocal matched
            matched += 1
            value = value_fn(valu, slots, state)
            key = head_key(valu)
            if key in bucket:
                bucket[key] = add(bucket[key], value)
            else:
                bucket[key] = value

        self._kernel.execute(guards, emit)
        value_fn.flush(self._stats)
        return matched


# ---------------------------------------------------------------------------
# The per-evaluator cache
# ---------------------------------------------------------------------------


class KernelCache:
    """Per-evaluator (= per-stratum) cache of compiled kernels.

    Keys are caller-chosen hashables (plan index, delta-variant rank);
    a hit is counted in ``JoinStats.kernel_cache_hits`` — the counter
    the regression gate watches to prove kernels are actually reused
    across fixpoint iterations instead of recompiled.
    """

    def __init__(self, stats: Optional[JoinStats] = None):
        self._kernels: Dict[Hashable, Any] = {}
        self.stats = stats

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        entry = self._kernels.get(key)
        if entry is None:
            entry = build()
            self._kernels[key] = entry
        elif self.stats is not None:
            self.stats.kernel_cache_hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._kernels)


#: The single source of truth for the ``engine=`` knob — shared by
#: :func:`repro.core.engine.solve` and the ``--engine`` CLI choice so
#: the two can never drift apart.
VALID_ENGINES: Tuple[str, ...] = (
    "auto",
    "interpreted",
    "compiled",
    "codegen",
    "batched",
)


def resolve_engine_mode(engine: str, plan: str) -> str:
    """Resolve an ``engine=`` knob to a pipeline mode.

    Returns one of ``"interpreted"`` (the per-application re-planned
    generator pipeline, the differential baseline), ``"closures"``
    (this module's nested-closure kernels), ``"codegen"`` (the
    source-generating backend of :mod:`repro.core.codegen`) or
    ``"batched"`` (the columnar whole-batch backend of
    :mod:`repro.core.batched`).  ``"auto"`` picks codegen exactly when
    the plan is indexed — the generated kernels are the fastest tier on
    every row of the repo benchmark's engine ablation — and the
    ``plan="naive"`` seed baseline stays interpreted byte-for-byte.
    Closures remain reachable as ``"compiled"``, the differential
    baseline for the generated source; ``"compiled"``, ``"codegen"``
    and ``"batched"`` reject non-indexed plans outright.
    """
    if engine not in VALID_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; valid choices: "
            + ", ".join(VALID_ENGINES)
        )
    if engine == "interpreted":
        return "interpreted"
    if engine in ("compiled", "codegen", "batched") and not is_indexed_plan(
        plan
    ):
        raise ValueError(
            f"engine={engine!r} requires an indexed plan; "
            f"plan={plan!r} has no compiled pipeline"
        )
    if not is_indexed_plan(plan):
        return "interpreted"
    return {"auto": "codegen", "compiled": "closures"}.get(engine, engine)


#: Resolved compiled mode -> (module, accumulate-mode constructor,
#: emit-mode constructor).  Every accumulate-mode constructor takes
#: :func:`repro.core.codegen.generate_rule_kernel`'s arguments, every
#: emit-mode one :func:`repro.core.codegen.generate_join_kernel`'s.
#: :meth:`BodyKernels.build` resolves the names through their module on
#: each build, so an outside-in probe patched over a constructor (the
#: repo benchmark's ``perf/tracing.py``) sees every kernel built.
_BACKENDS: Dict[str, Tuple[str, str, str]] = {
    "closures": ("kernels", "ClosureKernel", "compile_kernel"),
    "codegen": ("codegen", "generate_rule_kernel", "generate_join_kernel"),
    "batched": (
        "batched", "build_batched_rule_kernel", "build_batched_join_kernel",
    ),
}


#: A :class:`KernelScope` template slot whose kernel reads solve-owned
#: storage: every solve builds that kernel afresh.
_PRIVATE = object()


def _carried(guards: Sequence[Guard]) -> frozenset:
    """The factor slots whose values ride their guard's probe."""
    return frozenset(g.slot for g in guards if g.carries_value and g.slot is not None)


def _holds_solve_state(kernel: Any, database: Database) -> bool:
    """Whether ``kernel``'s env references ``database``, its store map,
    one of its stores or any database: state of the solve it was built
    for, which a later solve must not read."""
    owned = {id(database), id(database.relations)}
    owned.update(id(database.raw_support(name)) for name in database.relations)
    owned.update(id(keys) for keys in database.bool_relations.values())
    for obj in kernel.env.values():
        owner = getattr(obj, "__self__", obj)
        if id(owner) in owned or isinstance(owner, Database):
            return True
    return False


class KernelScope:
    """Codegen kernels shared by every solve of one prepared demand query.

    ``templates`` is the cache the solves share (one per prepared
    query, see :mod:`repro.core.demand`); ``prefix`` qualifies an
    evaluator's kernel keys (plan, function registry contents and
    stratum); and ``base`` is the database every solve's databases
    derive from: the per-solve ones add or replace only POPS relations
    (the demand seed, frozen strata) and share ``base``'s Boolean
    stores.

    A template is the kernel the first solve built.  Later solves get
    :meth:`~repro.core.codegen.CodegenKernel.rebind` copies, so a
    template's env may hold only objects that are the same for every
    solve: :meth:`kernel` keeps a kernel as a template only when its env
    references no store, store map or database that the building solve
    owns, and otherwise builds that kernel in every solve.
    """

    __slots__ = ("templates", "prefix", "base")

    def __init__(
        self,
        templates: Dict[Hashable, Any],
        prefix: Tuple[Hashable, ...],
        base: Database,
    ):
        self.templates = templates
        self.prefix = prefix
        self.base = base

    def admits(self, database: Database) -> bool:
        """Whether ``database`` holds exactly ``base``'s Boolean stores,
        so a template's Boolean lookups answer alike for every solve."""
        mine, theirs = database.bool_relations, self.base.bool_relations
        return len(mine) == len(theirs) and all(
            theirs.get(name) is store for name, store in mine.items()
        )

    def kernel(
        self,
        key: Hashable,
        build: Callable[[], Any],
        database: Database,
        stats: Optional[JoinStats],
        poll: Optional[Callable[[], None]],
    ):
        """The kernel under ``key`` for a solve over ``database``, armed
        with ``poll``: the template re-bound to ``stats`` and ``poll``,
        or ``build()``'s for a private slot.  A template is kept unarmed,
        so it holds on to no solve's poll."""
        key = self.prefix + (key,)
        template = self.templates.get(key)
        if template is None:
            template = build()
            if self._invariant(template, database):
                template = self.templates.setdefault(key, template)
            else:
                self.templates[key] = _PRIVATE
                template.install_poll(poll)
                return template
        elif template is _PRIVATE:
            kernel = build()
            kernel.install_poll(poll)
            return kernel
        return template.rebind(stats, poll)

    def _invariant(self, kernel: Any, database: Database) -> bool:
        base = self.base
        owned = {id(database), id(database.relations)}
        for name in database.relations:
            store = database.raw_support(name)
            if store is not base.raw_support(name):
                owned.add(id(store))
        for obj in kernel.env.values():
            owner = getattr(obj, "__self__", obj)
            if id(owner) in owned or (
                isinstance(owner, Database) and owner is not base
            ):
                return False
        return True


class BodyKernels:
    """The body-application seam: one per evaluator (= per stratum).

    Resolves ``engine``/``plan`` to a mode once and hands out one
    kernel per (rule, body[, variant]).  Whatever the mode, a kernel
    offers

    * ``run(guards, state, bucket) -> matched`` — apply the body once:
      ⊕-accumulate every match's ⊗-product into ``bucket`` under its
      head key.  ``state`` is the current IDB
      :class:`~repro.core.instance.Instance`, or the ``(new, delta,
      old)`` triple when the kernel was built for an Eq. 64
      ``variant=(idb_positions, j)``;
    * ``install_poll(poll)`` — arm the budget poll (done here, by
      :meth:`get`);
    * ``execute(guards, emit)`` — emit mode (built with ``head_args``
      ``None``): stream ``emit(valuation, slots)`` per match, both
      arguments owned by the kernel and reused, ``slots[i]`` the value
      that rode factor ``i``'s probe or ``NO_VALUE``.

    :meth:`get` caches by a caller-chosen key; reuse of a compiled
    kernel is counted in ``JoinStats.kernel_cache_hits``.  The
    interpreted pipeline keeps nothing between applications, so its
    adapters count no hits.  Given a ``scope`` (a prepared demand
    query's :class:`KernelScope`), the codegen mode takes each kernel
    from the scope's templates instead of planning and generating it;
    given ``templates`` (an incremental session's), it plans each kernel
    and takes only the generated source from them
    (:meth:`session_kernel`).

    The generated leaf may drop a leading ``1 ⊗`` over a relation read
    (codegen mode only) in a space with a canonical form ``1 ⊗ v``
    (``pops.caps.canonical``): the stores and warm starts hold
    canonical values and every kernel's products and sums stay
    canonical, so the drop needs no check of the data.
    """

    def __init__(
        self,
        engine: str,
        plan: str,
        database: Database,
        functions: Optional[FunctionRegistry],
        idb_names: frozenset,
        domain: Sequence[Any],
        stats: Optional[JoinStats] = None,
        poll: Optional[Callable[[], None]] = None,
        scope: Optional[KernelScope] = None,
        templates: Optional[Dict[Hashable, Any]] = None,
    ):
        self.mode = resolve_engine_mode(engine, plan)
        self.plan = plan
        self.database = database
        self.functions = functions
        self.idb_names = idb_names
        self.domain = domain
        self.stats = stats
        self.poll = poll
        self._cache = KernelCache(
            stats=stats if self.mode != "interpreted" else None
        )
        if self.mode != "codegen" or (
            scope is not None and not scope.admits(database)
        ):
            scope = None
        self.scope = scope
        self.templates = templates if self.mode == "codegen" else None
        #: Boolean lookups go through the scope's base database, which
        #: answers them alike for every solve (:meth:`KernelScope.admits`).
        self.bool_lookup = (self.scope.base if self.scope else database).bool_holds

    def get(self, key: Hashable, guards: Sequence[Guard], body: SumProduct, **spec):
        """The cached kernel under ``key``, built on first demand from
        that call's ``guards`` (see :meth:`build` for ``spec``)."""

        def build():
            return self.build(guards, body, **spec)

        def armed():
            if self.scope is not None:
                return self.scope.kernel(
                    key, build, self.database, self.stats, self.poll
                )
            if self.templates is not None:
                return self.session_kernel(guards, body, spec)
            kernel = build()
            kernel.install_poll(self.poll)
            return kernel

        return self._cache.get(key, armed)

    def session_kernel(self, guards: Sequence[Guard], body: SumProduct, spec: Dict[str, Any]):
        """One body's kernel for a batch of an incremental session,
        armed.  The body is planned now, so the batch's join order is
        its own; an earlier batch's kernel for the same plan IR and body
        is re-bound to this batch's counters instead of generated again.
        A kernel is kept in ``templates`` only when its env references
        no database or store (the next batch has other ones), and none
        is kept for a plan that reads the domain, which batches change.
        """
        ir = self._plan(guards, body, spec.get("extra_conjuncts", ()))
        carried = _carried(guards)
        key = None
        if not (ir.fallback or ir.needs_domain_set):
            key = (ir, body, spec.get("head_args"), spec.get("variant"), carried)
            try:
                hash(key)
            except TypeError:
                key = None
        kernel = None
        if key is not None:
            template = self.templates.get(key)
            if template is None:
                kernel = self.build(guards, body, ir=ir, carried=carried, **spec)
                template = _PRIVATE if _holds_solve_state(kernel, self.database) else kernel
                self.templates[key] = template
            if template is not _PRIVATE:
                return template.rebind(self.stats, self.poll)
        if kernel is None:
            kernel = self.build(guards, body, ir=ir, carried=carried, **spec)
        kernel.install_poll(self.poll)
        return kernel

    def _plan(
        self, guards: Sequence[Guard], body: SumProduct, extra_conjuncts: Sequence[Condition]
    ):
        ir, _indexes = plan_body(
            guards,
            body.enumeration_order(),
            body.condition,
            plan=self.plan,
            stats=self.stats,
            extra_conjuncts=extra_conjuncts,
            n_slots=len(body.factors),
        )
        return ir

    def build(
        self,
        guards: Sequence[Guard],
        body: SumProduct,
        head_args: Optional[Tuple[Term, ...]] = None,
        extra_conjuncts: Sequence[Condition] = (),
        variant: Optional[Tuple[Sequence[int], int]] = None,
        label: str = "rule",
        ir=None,
        carried: Optional[frozenset] = None,
    ):
        """Build one body's kernel with the mode's backend (unarmed:
        :meth:`get` installs the budget poll), under ``ir`` and
        ``carried`` if the caller worked them out already."""
        database, pops = self.database, self.database.pops
        if self.mode == "interpreted":
            return InterpretedKernel(
                body, head_args, pops, database, self.functions,
                self.idb_names, self.domain, self.plan, stats=self.stats,
                extra_conjuncts=extra_conjuncts, variant=variant,
            )
        if ir is None:
            ir = self._plan(guards, body, extra_conjuncts)
        module_name, rule_kernel, join_kernel = _BACKENDS[self.mode]
        module = importlib.import_module(f".{module_name}", __package__)
        if head_args is None:
            return getattr(module, join_kernel)(
                ir, self.bool_lookup, self.domain,
                stats=self.stats, label=label,
            )
        if carried is None:
            carried = _carried(guards)
        return getattr(module, rule_kernel)(
            ir, body, head_args, pops, database, self.functions,
            self.idb_names, self.bool_lookup, carried, self.domain,
            stats=self.stats, variant=variant, label=label,
        )
