"""Condition pushdown: residual filters and equality bindings for joins.

The seed join core evaluated a body's conditional ``Φ`` exactly once,
at the *leaf* of the enumeration — after every variable had been bound
by a guard key or a fallback-domain candidate.  That is the formal
reading of Eq. 13, but it wastes the conjunctive structure of ``Φ``:
a conjunct whose variables are bound after the second of seven plan
steps can reject a partial valuation five steps early, and an equality
conjunct ``x = t`` can *compute* ``x`` outright instead of enumerating
the fallback domain for it.

This module turns ``Φ`` (plus any extra conjuncts the engine proves
pushable, e.g. default-``0`` indicator brackets over semirings) into a
:class:`PushdownSchedule`:

* **prefix filters** — conjuncts decidable from the base bindings,
  checked once before the first plan step;
* **per-step filters** — conjuncts attached to the earliest plan step
  that binds the last of their variables (held on
  :class:`~repro.core.planner.PlanStep`);
* **initial bindings** — equality conjuncts resolvable from the base
  bindings alone, applied before planning so probe masks can use them;
* **fallback steps** — one :class:`FallbackStep` per variable no guard
  covers, replacing the monolithic ``itertools.product`` leaf with an
  incremental extension loop that binds one variable at a time, prunes
  as soon as a pushed filter fails, and substitutes a direct equality
  binding for domain enumeration where ``Φ`` forces the value;
* **residual filters** — whatever could not be scheduled (conjuncts
  over variables bound by nothing), checked at the leaf exactly like
  the seed did.

Soundness: conjuncts of a top-level ``∧`` may be evaluated in any
order and at any point after their variables are bound (they are pure),
so the yielded valuation *set* is unchanged — a property the test
suite checks by differential enumeration against ``plan="naive"``.
Equality bindings for fallback variables additionally check membership
in the fallback domain, because the seed semantics ranges those
variables over the domain (a binding outside it must yield nothing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .ast import (
    And,
    BoolAtom,
    Compare,
    Condition,
    Term,
    TrueCond,
    Valuation,
    Variable,
    condition_holds,
    eval_term,
    term_variables,
)
from .indexes import JoinStats, Key


def flatten_conjuncts(condition: Condition) -> Tuple[Condition, ...]:
    """Split a condition into its top-level ``∧``-conjuncts.

    ``Or``/``Not``/``Compare``/``BoolAtom`` nodes are atomic (their
    variables must all be bound before evaluation); nested ``And``
    nodes are flattened recursively.  ``TrueCond`` contributes nothing.
    """
    if isinstance(condition, TrueCond):
        return ()
    if isinstance(condition, And):
        out: List[Condition] = []
        for part in condition.parts:
            out.extend(flatten_conjuncts(part))
        return tuple(out)
    return (condition,)


def equality_orientations(conjunct: Condition) -> Tuple[Tuple[str, Term], ...]:
    """Every ``(variable, term)`` reading of a defining equality conjunct.

    A conjunct ``X == t`` *defines* ``X`` when ``t`` does not mention
    ``X``; the join can then bind ``X := t`` once ``t``'s variables are
    bound, instead of enumerating a domain.  ``X == Y`` defines both
    variables (whichever binds later takes the binding), so both
    orientations are returned.
    """
    if not (isinstance(conjunct, Compare) and conjunct.op == "=="):
        return ()
    out: List[Tuple[str, Term]] = []
    for var_side, term_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if isinstance(var_side, Variable):
            term_vars = {v.name for v in term_variables(term_side)}
            if var_side.name not in term_vars:
                out.append((var_side.name, term_side))
    return tuple(out)


def equality_binding(conjunct: Condition) -> Optional[Tuple[str, Term]]:
    """The first defining orientation of an equality conjunct, if any."""
    orientations = equality_orientations(conjunct)
    return orientations[0] if orientations else None


@dataclass(frozen=True)
class _Conjunct:
    cond: Condition
    vars: FrozenSet[str]


@dataclass(frozen=True)
class FallbackStep:
    """One variable of the incremental fallback-extension loop.

    ``binding`` replaces domain enumeration with a direct equality
    binding (checked against the fallback domain); ``filters`` are the
    conjuncts that become decidable once this variable is bound.
    """

    var: str
    binding: Optional[Term] = None
    filters: Tuple[Condition, ...] = ()


@dataclass(frozen=True)
class PushdownSchedule:
    """The compiled placement of every conjunct of ``Φ``.

    ``step_filters[i]`` belongs to plan step ``i``; the planner copies
    it onto the step.  ``initial_bindings`` are ``(var, term,
    check_domain)`` triples applied to the base valuation before the
    first step.  ``residual`` is checked at the leaf (seed position).
    """

    prefix_filters: Tuple[Condition, ...] = ()
    initial_bindings: Tuple[Tuple[str, Term, bool], ...] = ()
    step_filters: Tuple[Tuple[Condition, ...], ...] = ()
    fallback: Tuple[FallbackStep, ...] = ()
    residual: Tuple[Condition, ...] = ()
    needs_domain_set: bool = field(default=False)

    @property
    def reads_domain(self) -> bool:
        """Whether running the schedule reads the fallback domain: it
        enumerates a variable over it or checks a binding against it.
        Which variables that is depends on the guards, not their order."""
        return bool(self.fallback) or self.needs_domain_set


def naive_schedule(
    condition: Condition, remaining: Sequence[str]
) -> PushdownSchedule:
    """The seed-equivalent schedule: no pushdown, ``Φ`` at the leaf.

    Used by ``plan="naive"`` so both plans share one fallback executor
    while the baseline keeps its leaf-check semantics byte-for-byte.
    """
    residual = () if isinstance(condition, TrueCond) else (condition,)
    return PushdownSchedule(
        fallback=tuple(FallbackStep(var=v) for v in remaining),
        residual=residual,
    )


def _guard_consumes(conjunct: Condition, step_guards) -> bool:
    """Whether a positive BoolAtom conjunct duplicates a guard step.

    ``body_guards`` turns positive-conjunctive Boolean atoms into
    guards over the same live store the ``bool_lookup`` oracle reads,
    so re-checking the conjunct after its guard step always succeeds —
    it can be dropped from the schedule.
    """
    if not isinstance(conjunct, BoolAtom):
        return False
    for guard in step_guards:
        if guard.name == f"bool:{conjunct.relation}" and guard.args == conjunct.args:
            return True
    return False


def compile_schedule(
    condition: Condition,
    extra_conjuncts: Sequence[Condition],
    bound: AbstractSet[str],
    ordered_guards: Sequence,
    variables: Sequence[str],
) -> PushdownSchedule:
    """Place every conjunct at its earliest sound position.

    Args:
        condition: The body's ``Φ``.
        extra_conjuncts: Engine-proven pushable filters (e.g. indicator
            brackets whose false branch is the absorbing ``0``).  These
            participate in scheduling but are *not* part of ``Φ`` —
            callers must guarantee that dropping a valuation that
            falsifies one is semantics-preserving.
        bound: Variable names bound before the first step (base
            valuation).
        ordered_guards: The plan's guards in execution order (each
            binds its simple-arg variables).
        variables: The enumeration's variable list; variables not bound
            by ``bound`` or any guard become fallback steps.
    """
    conjuncts = [
        _Conjunct(c, c.variables())
        for c in (*flatten_conjuncts(condition), *extra_conjuncts)
        if not _guard_consumes(c, ordered_guards)
    ]
    consumed = [False] * len(conjuncts)
    bound_now: Set[str] = set(bound)
    guard_vars: Set[str] = set()
    for guard in ordered_guards:
        for arg in guard.args:
            if isinstance(arg, Variable):
                guard_vars.add(arg.name)

    def take_filters() -> Tuple[Condition, ...]:
        out: List[Condition] = []
        for i, cj in enumerate(conjuncts):
            if not consumed[i] and cj.vars <= bound_now:
                consumed[i] = True
                out.append(cj.cond)
        return tuple(out)

    def take_binding(candidates: Sequence[str]) -> Optional[Tuple[str, Term, int]]:
        for var in candidates:
            for i, cj in enumerate(conjuncts):
                if consumed[i]:
                    continue
                for eq_var, eq_term in equality_orientations(cj.cond):
                    if eq_var != var:
                        continue
                    term_vars = {v.name for v in term_variables(eq_term)}
                    if term_vars <= bound_now:
                        return (var, eq_term, i)
        return None

    prefix_filters = take_filters()

    # Equality conjuncts decidable from the base alone bind before the
    # first step, so probe masks can treat their variables as bound.
    initial_bindings: List[Tuple[str, Term, bool]] = []
    needs_domain = False
    while True:
        unbound = [v for v in variables if v not in bound_now] + sorted(
            guard_vars - bound_now - set(variables)
        )
        hit = take_binding(unbound)
        if hit is None:
            break
        var, term, idx = hit
        consumed[idx] = True
        check_domain = var not in guard_vars and var in set(variables)
        needs_domain = needs_domain or check_domain
        initial_bindings.append((var, term, check_domain))
        bound_now.add(var)
        prefix_filters = prefix_filters + take_filters()

    step_filters: List[Tuple[Condition, ...]] = []
    for guard in ordered_guards:
        for arg in guard.args:
            if isinstance(arg, Variable):
                bound_now.add(arg.name)
        step_filters.append(take_filters())

    fallback: List[FallbackStep] = []
    left = [v for v in variables if v not in bound_now]
    while left:
        hit = take_binding(left)
        if hit is not None:
            var, term, idx = hit
            consumed[idx] = True
            binding: Optional[Term] = term
            needs_domain = True
        else:
            var, binding = left[0], None
        left.remove(var)
        bound_now.add(var)
        fallback.append(
            FallbackStep(var=var, binding=binding, filters=take_filters())
        )

    residual = tuple(
        cj.cond for i, cj in enumerate(conjuncts) if not consumed[i]
    )
    return PushdownSchedule(
        prefix_filters=prefix_filters,
        initial_bindings=tuple(initial_bindings),
        step_filters=tuple(step_filters),
        fallback=tuple(fallback),
        residual=residual,
        needs_domain_set=needs_domain,
    )


def apply_initial_bindings(
    schedule: PushdownSchedule,
    valuation: Valuation,
    domain_set: Optional[AbstractSet],
    counters: Optional[JoinStats] = None,
) -> Optional[Valuation]:
    """Extend the base valuation with the schedule's direct bindings.

    Returns ``None`` when a binding falls outside the fallback domain
    (the enumeration yields nothing, exactly as domain enumeration plus
    the equality filter would).
    """
    for var, term, check_domain in schedule.initial_bindings:
        if var in valuation:
            # A caller bound it after compile time: the consumed
            # equality conjunct must still hold as a filter.
            if valuation[var] != eval_term(term, valuation):
                return None
            continue
        value = eval_term(term, valuation)
        if counters is not None:
            counters.equality_bindings += 1
        if check_domain and domain_set is not None and value not in domain_set:
            return None
        valuation[var] = value
    return valuation


def run_fallback(
    valuation: Valuation,
    steps: Sequence[FallbackStep],
    residual: Sequence[Condition],
    domain: Sequence,
    domain_set: Optional[AbstractSet],
    bool_lookup: Callable[[str, Key], bool],
    counters: JoinStats,
) -> Iterator[Valuation]:
    """Extend a guard-complete valuation over the fallback variables.

    The shared tail of both join plans (the seed's copy-pasted
    ``itertools.product`` leaves collapsed into one helper).
    ``fallback_candidates`` counts *complete* assignments — the seed's
    metric — while ``fallback_extensions`` counts every intermediate
    candidate the incremental loop touches and ``pushdown_prunes``
    every branch a pushed filter cut.
    """
    total = len(steps)
    if total == 0:
        for cond in residual:
            if not condition_holds(cond, valuation, bool_lookup):
                return
        yield valuation
        return

    plain = all(step.binding is None and not step.filters for step in steps)
    if plain:
        # No filters or bindings to interleave: one dict per complete
        # assignment (the seed's exact allocation and count pattern).
        names = [step.var for step in steps]
        yield from _plain_product(
            valuation, names, residual, domain, bool_lookup, counters
        )
        return

    def extend(depth: int, partial: Valuation) -> Iterator[Valuation]:
        if depth == total:
            for cond in residual:
                if not condition_holds(cond, partial, bool_lookup):
                    counters.pushdown_prunes += 1
                    return
            yield partial
            return
        step = steps[depth]
        last = depth == total - 1
        if step.binding is not None:
            value = eval_term(step.binding, partial)
            counters.equality_bindings += 1
            if domain_set is not None and value not in domain_set:
                return
            candidates: Sequence = (value,)
        else:
            candidates = domain
        for value in candidates:
            child = dict(partial)
            child[step.var] = value
            if last:
                counters.fallback_candidates += 1
            else:
                counters.fallback_extensions += 1
            pruned = False
            for cond in step.filters:
                if not condition_holds(cond, child, bool_lookup):
                    counters.pushdown_prunes += 1
                    pruned = True
                    break
            if not pruned:
                yield from extend(depth + 1, child)

    yield from extend(0, valuation)


def _plain_product(
    valuation: Valuation,
    names: Sequence[str],
    residual: Sequence[Condition],
    domain: Sequence,
    bool_lookup: Callable[[str, Key], bool],
    counters: JoinStats,
) -> Iterator[Valuation]:
    for combo in itertools.product(domain, repeat=len(names)):
        candidate = dict(valuation)
        candidate.update(zip(names, combo))
        counters.fallback_candidates += 1
        if all(condition_holds(c, candidate, bool_lookup) for c in residual):
            yield candidate
