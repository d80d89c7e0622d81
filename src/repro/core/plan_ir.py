"""Backend-neutral Plan IR: one ``BodyPlanIR`` per ordered (rule, body).

Until this module existed, the *join plan* of a body — which guards
probe in which order, on which masks, with which pushed-down filters,
equality bindings, fallback loops and value-carrying slots — lived only
implicitly: the planner (:mod:`repro.core.planner`) produced a
:class:`~repro.core.planner.JoinPlan` of live objects (guards bound to
concrete :class:`~repro.core.indexes.KeyIndex` instances), the pushdown
layer (:mod:`repro.core.pushdown`) attached its schedule to it, and
every executor re-derived the parts it needed: the interpreted pipeline
walked the ``JoinPlan`` directly, while the closure kernels
(:mod:`repro.core.kernels`) re-extracted bind/dup positions into their
private ``_StepSpec``/``_FallbackSpec`` shapes.  Any new backend had to
fork that extraction again.

This module makes the plan an explicit, frozen, **backend-neutral**
value:

* :class:`ProbeStepIR` — one ordered guard: its position in the
  caller's guard list (``guard_pos`` — index objects are *not* part of
  the IR; executors resolve ``guards[guard_pos]`` per invocation, which
  is what keeps kernels safe under per-iteration index refreshes), the
  probe mask and probe terms, the unification reduced to *fresh-bind*
  and *duplicate-check* key positions (masked positions are guaranteed
  equal by the probe itself), the pushed-down filters decidable at the
  step, and the body-factor slot whose value rides the probe.
* :class:`BodyPlanIR` — the full plan: ordered probe steps, the
  incremental fallback loop (reusing
  :class:`~repro.core.pushdown.FallbackStep`), prefix/residual filters,
  initial equality bindings, and the head/value metadata backends need
  (``variables``, ``n_slots``).

:func:`build_body_plan` produces the IR **once** per (rule, body[,
delta-variant]) by delegating the actual planning — join-order search,
mask computation, pushdown placement — to
:func:`repro.core.planner.build_plan`; the IR layer changes *where the
plan lives* (an inspectable value shared by every backend), not *what*
is planned.  Consumers:

* the interpreted pipeline (:func:`repro.core.planner.execute_ir`, via
  ``enumerate_matches``) walks the IR with generator semantics;
* the closure kernels (:func:`repro.core.kernels.compile_kernel`)
  compile each IR node into a nested-closure pipeline;
* the source-codegen backend (:mod:`repro.core.codegen`) emits one flat
  Python function per IR and ``compile()``-s it.

All three enumerate the same valuation stream by construction — the
differential test suites check the fixpoints byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .ast import Condition, Term
from .indexes import JoinStats, KeyIndex, Mask
from .pushdown import FallbackStep


@dataclass(frozen=True)
class ProbeStepIR:
    """One ordered guard of a body plan (backend-neutral).

    Attributes:
        guard_pos: Position of the step's guard in the guard list the
            executor is invoked with.  The IR never holds index
            objects: executors resolve ``guards[guard_pos].index`` per
            invocation (falling back to an ephemeral index over
            ``guards[guard_pos].keys()``), so refreshed indexes are
            picked up without recompiling anything.
        mask: Key positions bound when the step runs (constants plus
            variables bound by earlier steps or initial bindings).
        probe_args: The terms at the masked positions, in mask order.
        arity: ``len(guard.args)`` — keys of any other length are
            skipped (``arity_skips``).
        binds: ``(key position, variable name)`` pairs — the first
            occurrence of each unbound variable, bound from the key.
        dups: ``(key position, earlier position)`` pairs — repeated
            unbound variables, checked for equality against their
            first occurrence.
        filters: Pushed-down ``Φ``-conjuncts decidable right after
            this step's variables bind.
        slot: Body-factor position whose value the guard's entries
            carry (``None`` for Boolean/condition guards).
    """

    guard_pos: int
    mask: Mask
    probe_args: Tuple[Term, ...]
    arity: int
    binds: Tuple[Tuple[int, str], ...]
    dups: Tuple[Tuple[int, int], ...]
    filters: Tuple[Condition, ...]
    slot: Optional[int]


@dataclass(frozen=True)
class BodyPlanIR:
    """The complete, frozen plan of one sum-product body.

    Everything an executor needs that does not change between fixpoint
    iterations: the ordered probe steps, the pushdown schedule's
    placement (prefix filters, initial equality bindings, per-variable
    fallback loop, residual leaf filters) and the enumeration metadata
    (``variables``, ``n_slots`` value slots, whether fallback/binding
    checks need the domain *set*).  Index objects, store snapshots and
    semiring operations are deliberately absent — they are the
    backend's business, resolved at execution (interpreted), closure
    compile (kernels) or source generation (codegen) time.
    """

    steps: Tuple[ProbeStepIR, ...]
    fallback: Tuple[FallbackStep, ...]
    residual: Tuple[Condition, ...]
    prefix_filters: Tuple[Condition, ...]
    initial_bindings: Tuple[Tuple[str, Term, bool], ...]
    needs_domain_set: bool
    variables: Tuple[str, ...]
    n_slots: int
    bound_after_steps: frozenset


def _freeze_steps(
    plan_steps, guard_positions: Sequence[int]
) -> Tuple[ProbeStepIR, ...]:
    """Reduce each planned step's unification to IR positions.

    Masked positions (constants and plan-time-bound variables) are
    guaranteed equal by the probe key itself; every non-masked arg is
    a :class:`~repro.core.ast.Variable` (the planner masks constants
    unconditionally), bound fresh at its first occurrence and
    dup-checked at later ones.
    """
    out: List[ProbeStepIR] = []
    for step, guard_pos in zip(plan_steps, guard_positions):
        args = step.guard.args
        mask_set = set(step.mask)
        binds: List[Tuple[int, str]] = []
        dups: List[Tuple[int, int]] = []
        seen: dict = {}
        for pos, arg in enumerate(args):
            if pos in mask_set:
                continue
            name = arg.name
            if name in seen:
                dups.append((pos, seen[name]))
            else:
                seen[name] = pos
                binds.append((pos, name))
        out.append(
            ProbeStepIR(
                guard_pos=guard_pos,
                mask=step.mask,
                probe_args=step.probe_args,
                arity=len(args),
                binds=tuple(binds),
                dups=tuple(dups),
                filters=step.filters,
                slot=step.slot,
            )
        )
    return tuple(out)


def build_body_plan(
    guards: Sequence,
    variables: Sequence[str],
    condition: Condition,
    bound: Set[str] = frozenset(),
    extra_conjuncts: Sequence[Condition] = (),
    order: str = "cost",
    stats: Optional[JoinStats] = None,
    n_slots: int = 0,
) -> Tuple[BodyPlanIR, List[Optional[KeyIndex]]]:
    """Plan one body and lower the result to a :class:`BodyPlanIR`.

    Planning (join-order search, probe masks, pushdown placement) is
    delegated to :func:`repro.core.planner.build_plan` over the
    simple-arg guards; this function only *freezes* the outcome into
    the backend-neutral IR.  ``guard_pos`` values index the **full**
    ``guards`` sequence as given (including non-simple guards the
    planner skipped), so executors can be handed the same guard lists
    evaluators already maintain.

    Returns the IR plus the planner's per-guard indexes, aligned with
    ``guards`` (``None`` for guards the plan does not step through).
    One-shot executors (the interpreted pipeline, which re-plans per
    rule application) probe these directly; caching backends discard
    them and re-resolve ``guards[guard_pos].index`` per invocation.
    """
    from .planner import build_plan  # local: planner imports stay one-way

    usable = [g for g in guards if g.simple_args()]
    positions = {id(g): i for i, g in enumerate(guards)}
    plan = build_plan(
        usable,
        bound=set(bound),
        stats=stats,
        condition=condition,
        variables=variables,
        extra_conjuncts=extra_conjuncts,
        order=order,
    )

    indexes: List[Optional[KeyIndex]] = [None] * len(guards)
    guard_positions: List[int] = []
    for step in plan.steps:
        pos = positions[id(step.guard)]
        indexes[pos] = step.index
        guard_positions.append(pos)

    schedule = plan.schedule
    ir = BodyPlanIR(
        steps=_freeze_steps(plan.steps, guard_positions),
        fallback=schedule.fallback,
        residual=schedule.residual,
        prefix_filters=schedule.prefix_filters,
        initial_bindings=schedule.initial_bindings,
        needs_domain_set=schedule.needs_domain_set,
        variables=tuple(variables),
        n_slots=n_slots,
        bound_after_steps=plan.bound_after_steps,
    )
    return ir, indexes
