"""Solve-time guardrails: pre-flight, budgets, partials, fault plans.

The paper's stability/convergence theory (Section 5, Theorem 1.2) can
*predict* whether a program over a given POPS converges, and how fast —
but until this module the engine never consulted it: a non-stable value
space simply hung in the fixpoint loop.  This module makes divergence a
first-class, *structured* outcome instead of a hang, in three layers:

**Pre-flight** — :func:`preflight` runs the stability probes
(:mod:`repro.semirings.stability`) and the convergence classifier
(:mod:`repro.analysis.convergence`) against the program + semiring
before the fixpoint starts, producing a :class:`PreflightVerdict`:
``converges`` (stable core, input-dependent time), ``bounded-by-N``
(uniformly p-stable core, explicit step bound) or ``may-diverge:
<reason>`` (stability not established — cases (i)/(ii) of the
taxonomy).  The verdict is advisory: it rides on the result
(:attr:`~repro.core.naive.EvaluationResult.verdict`) and on any
:class:`BudgetExceeded`, it never blocks evaluation.

**Budgets** — :class:`Budget` carries the enforceable resource limits
of ``solve(…, max_iterations=, max_wall_s=, max_tuples=)``.  The
iteration loops (naïve, semi-naïve, scheduler strata, the sharded
coordinator) charge it once per iteration; the kernel layers
(closure/codegen/batched) poll the wall clock inside a rule
application via :meth:`Budget.wall_hook`, so even a single runaway
iteration is interrupted.  A tripped budget raises
:class:`BudgetExceeded` carrying a :class:`PartialResult` — the last
*consistent* fixpoint prefix (a completed iterate, never a
half-applied delta), per-stratum progress, and the delta that was
still growing — so budgeted callers keep all completed work.

**Fault plans** — :class:`FaultPlan` parses the deterministic
fault-injection spec ``DATALOGO_FAULT`` used by the sharded
self-healing tests and ``bench_e25_robustness.py``::

    DATALOGO_FAULT="crash@2:1"          # worker 1 crashes at step 2
    DATALOGO_FAULT="stall@3:0"          # worker 0 stalls at step 3
    DATALOGO_FAULT="corrupt@2:1,crash@4:0"   # comma-separated specs
    DATALOGO_FAULT="crash@2:0:*"        # every generation (defeats the
                                        # restart rung → degradation)

Each spec is ``kind@step:worker[:generation]`` with ``kind`` one of
``crash`` / ``stall`` / ``corrupt``.  The generation defaults to ``0``
(only the *first* incarnation of the worker faults, so a restarted
worker replays the step cleanly); ``*`` matches every incarnation,
driving the full degradation ladder (restart → demote → single-process).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..fixpoint.iteration import DivergenceError

#: The fault-injection environment variable (see module docstring).
FAULT_ENV = "DATALOGO_FAULT"

_FAULT_KINDS = ("crash", "stall", "corrupt")


# ---------------------------------------------------------------------------
# Pre-flight verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreflightVerdict:
    """Structured convergence prediction attached to every solve.

    Attributes:
        status: ``"converges"`` (stable core — every program
            terminates, in input-value-dependent time),
            ``"bounded"`` (uniformly p-stable core — ``bound`` holds an
            explicit iteration bound), or ``"may-diverge"`` (stability
            not established; ``reason`` says why).
        reason: Human-readable explanation (the classifier's, or the
            analysis failure).
        bound: The step bound when ``status == "bounded"``.
        report: The underlying
            :class:`~repro.analysis.convergence.ConvergenceReport`,
            when the analysis ran.
    """

    status: str
    reason: str
    bound: Optional[int] = None
    report: Optional[Any] = None

    def describe(self) -> str:
        """The ISSUE-spec verdict string: ``converges``,
        ``bounded-by-N`` or ``may-diverge: <reason>``."""
        if self.status == "bounded":
            return f"bounded-by-{self.bound}"
        if self.status == "may-diverge":
            return f"may-diverge: {self.reason}"
        return "converges"

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "status": self.status,
            "verdict": self.describe(),
            "reason": self.reason,
        }
        if self.bound is not None:
            out["bound"] = self.bound
        if self.report is not None:
            out["taxonomy_case"] = self.report.taxonomy_case
            out["n_ground_atoms"] = self.report.n_ground_atoms
            out["stability_p"] = self.report.stability_p
        return out


#: Above this ``N = |GA(τ, D₀)|`` the exact Theorem 5.12 bounds are not
#: materialized: ``Σ (p+2)^i`` is a bignum with ~N log(p+2) bits, so the
#: sum is quadratic in N — the pre-flight must stay O(probe) on large
#: instances.  The verdict *status* is unaffected; only the explicit
#: bound degrades to ``N`` (0-stable cores) or is omitted.
_BOUND_N_CAP = 4096


def _coarse_verdict(database, n: int, probe_budget: int) -> PreflightVerdict:
    """Verdict from the stability facts alone, no bound arithmetic."""
    from ..semirings.stability import (
        cached_stability_probe,
        core_is_trivial,
        is_zero_stable,
    )

    pops = database.pops
    core = pops.core_semiring()
    if core_is_trivial(pops) or is_zero_stable(core):
        return PreflightVerdict(
            status="bounded",
            reason=(
                "core semiring is 0-stable: convergence in ≤ N steps "
                "(Corollary 5.19)"
            ),
            bound=n,
        )
    probe = cached_stability_probe(core, budget=probe_budget)
    if probe.stable:
        return PreflightVerdict(
            status="converges",
            reason=(
                f"core semiring is {probe.index}-stable: convergence is "
                f"guaranteed, but N = {n} is too large to materialize "
                "the Theorem 5.12 step bound"
            ),
        )
    return PreflightVerdict(
        status="may-diverge",
        reason=(
            "stability not established: the naïve algorithm may diverge "
            "(Section 4.2 cases (i)/(ii))"
        ),
    )


def preflight(
    program, database, probe_budget: int = 64
) -> PreflightVerdict:
    """Run the convergence analysis as a solve pre-flight check.

    Never raises: an analysis failure (an exotic POPS without sample
    values, say) degrades to a ``may-diverge`` verdict whose reason
    records the failure — the guardrail must not be able to break a
    solve that would have succeeded.  Stability probes are memoized per
    structure (:func:`repro.semirings.stability.cached_stability_probe`),
    so the per-solve cost beyond the first is one ``N = |GA(τ, D₀)|``
    count.
    """
    try:
        from ..analysis.convergence import classify, count_ground_atoms

        n = count_ground_atoms(program, database)
        if n > _BOUND_N_CAP:
            return _coarse_verdict(database, n, probe_budget)
        report = classify(program, database, probe_budget=probe_budget)
    except Exception as exc:  # noqa: BLE001 — advisory path, never fatal
        return PreflightVerdict(
            status="may-diverge",
            reason=f"pre-flight analysis failed: {exc!r}",
        )
    if report.bound is not None:
        return PreflightVerdict(
            status="bounded",
            reason=report.explanation,
            bound=report.bound,
            report=report,
        )
    if report.taxonomy_case == "(iii)":
        return PreflightVerdict(
            status="converges", reason=report.explanation, report=report
        )
    return PreflightVerdict(
        status="may-diverge", reason=report.explanation, report=report
    )


# ---------------------------------------------------------------------------
# Budgets and partial results
# ---------------------------------------------------------------------------


@dataclass
class PartialResult:
    """What a tripped budget preserves instead of losing all work.

    ``instance`` is the last *consistent* fixpoint prefix: a fully
    applied iterate ``J⁽ᵗ⁾`` (scheduled runs: completed strata plus the
    interrupted stratum's last iterate), never a half-merged delta.
    Because the Kleene iterates form an ascending chain, the prefix is
    ``⊑`` the true least fixpoint pointwise — the property the
    hypothesis suite asserts across TROP/BOOL/THREE.
    """

    instance: Any
    steps: int
    stats: Dict[str, Any] = field(default_factory=dict)
    strata: List[Any] = field(default_factory=list)
    #: The still-growing delta at interruption (semi-naïve paths).
    delta: Optional[Any] = None
    trace: List[Any] = field(default_factory=list)


class BudgetExceeded(DivergenceError):
    """A solve hit one of its resource budgets.

    Subclasses :class:`~repro.fixpoint.iteration.DivergenceError` so
    pre-guardrail callers catching the iteration guard keep working;
    structured callers additionally get:

    * ``resource`` — ``"iterations"`` / ``"wall_s"`` / ``"tuples"``;
    * ``limit`` / ``spent`` — the budget and the measured spend;
    * ``partial`` — a :class:`PartialResult` (attached by the
      interrupted evaluator; ``None`` only if the trip happened before
      any iterate completed);
    * ``verdict`` — the :class:`PreflightVerdict`, when pre-flight ran.
    """

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        resource: str,
        limit: Any,
        spent: Any,
        partial: Optional[PartialResult] = None,
        verdict: Optional[PreflightVerdict] = None,
        trace: Optional[List] = None,
    ):
        if message is None:
            message = (
                f"budget exceeded: {resource} "
                f"(limit {limit!r}, spent {spent!r})"
            )
        super().__init__(message, trace=trace)
        self.resource = resource
        self.limit = limit
        self.spent = spent
        self.partial = partial
        self.verdict = verdict


class Budget:
    """Enforceable resource limits for one solve.

    One instance is shared by every evaluator the solve spawns
    (scheduler strata, the semi-naïve bootstrap, shard coordinators),
    so the wall clock and tuple count are global to the solve, not per
    stratum.  ``max_iterations`` is enforced by the evaluators' own
    loop bounds (as before guardrails existed) and carried here so the
    resulting :class:`BudgetExceeded` reports it uniformly.

    Unarmed limits cost nothing on the happy path: :meth:`wall_hook`
    returns ``None`` when no wall budget is set, so the kernel layers
    skip the poll entirely, and :meth:`charge_size` is one attribute
    check per iteration.
    """

    __slots__ = (
        "max_iterations",
        "max_wall_s",
        "max_tuples",
        "verdict",
        "started_at",
        "tuples",
    )

    def __init__(
        self,
        max_iterations: Optional[int] = None,
        max_wall_s: Optional[float] = None,
        max_tuples: Optional[int] = None,
        verdict: Optional[PreflightVerdict] = None,
    ):
        self.max_iterations = max_iterations
        self.max_wall_s = max_wall_s
        self.max_tuples = max_tuples
        self.verdict = verdict
        self.started_at = time.monotonic()
        #: Tuples already committed by completed strata (the scheduler
        #: folds each frozen stratum's size in, so per-stratum
        #: evaluators charge only their local instance size).
        self.tuples = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    def poll(self) -> None:
        """Raise when the wall budget is exhausted (no-op when unarmed)."""
        if self.max_wall_s is None:
            return
        spent = time.monotonic() - self.started_at
        if spent > self.max_wall_s:
            raise BudgetExceeded(
                resource="wall_s",
                limit=self.max_wall_s,
                spent=round(spent, 6),
                verdict=self.verdict,
            )

    def wall_hook(self) -> Optional[Callable[[], None]]:
        """A poll callable for the kernel layers, or ``None`` when no
        wall budget is armed (so the hot paths pay nothing)."""
        return self.poll if self.max_wall_s is not None else None

    def charge_size(self, size: int) -> None:
        """Per-iteration charge: current instance size + wall check."""
        if (
            self.max_tuples is not None
            and self.tuples + size > self.max_tuples
        ):
            raise BudgetExceeded(
                resource="tuples",
                limit=self.max_tuples,
                spent=self.tuples + size,
                verdict=self.verdict,
            )
        self.poll()

    def commit_tuples(self, size: int) -> None:
        """Fold a completed stratum's size into the global tuple spend."""
        self.tuples += size


def attach_partial(exc: BudgetExceeded, partial: PartialResult) -> None:
    """Attach a partial result to an in-flight trip, innermost wins.

    The evaluator closest to the interrupted loop attaches first (it
    knows the true last iterate); outer layers (the scheduler) *enrich*
    by replacing with a superset — they must only do so via their own
    explicit assignment, never through this helper.
    """
    if exc.partial is None:
        exc.partial = partial


# ---------------------------------------------------------------------------
# Deterministic fault injection (DATALOGO_FAULT)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``kind@step:worker[:generation]`` clause."""

    kind: str
    step: int
    worker: int
    #: ``None`` means every generation (the ``*`` spec).
    generation: Optional[int] = 0


class FaultPlan:
    """The parsed ``DATALOGO_FAULT`` spec, with fire-once bookkeeping.

    A pinned-generation spec fires at most once per plan instance
    (worker loops build one plan each, so "once" means once per worker
    incarnation — and a restarted worker carries a higher generation,
    so a default ``:0`` spec never re-fires on replay).  A ``*`` spec
    fires once per generation, which is what keeps the fault alive
    through restarts and drives the demotion ladder.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...] = ()):
        self.specs = tuple(specs)
        self._fired: set = set()

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, raw: str) -> "FaultPlan":
        specs: List[FaultSpec] = []
        for clause in raw.split(","):
            clause = clause.strip()
            if not clause:
                continue
            kind, sep, where = clause.partition("@")
            if not sep or kind not in _FAULT_KINDS:
                raise ValueError(
                    f"bad {FAULT_ENV} clause {clause!r}: expected "
                    f"kind@step:worker[:generation] with kind in "
                    f"{_FAULT_KINDS}"
                )
            bits = where.split(":")
            try:
                step = int(bits[0])
                worker = int(bits[1]) if len(bits) > 1 else 0
                generation: Optional[int] = 0
                if len(bits) > 2:
                    generation = None if bits[2] == "*" else int(bits[2])
            except (ValueError, IndexError) as exc:
                raise ValueError(
                    f"bad {FAULT_ENV} clause {clause!r}: {exc}"
                ) from exc
            specs.append(FaultSpec(kind, step, worker, generation))
        return cls(tuple(specs))

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        raw = (environ if environ is not None else os.environ).get(
            FAULT_ENV, ""
        )
        return cls.parse(raw) if raw else cls()

    def should(self, kind: str, step: int, worker: int, generation: int) -> bool:
        """Whether a fault of ``kind`` fires at this site, consuming it."""
        for i, spec in enumerate(self.specs):
            if (
                spec.kind != kind
                or spec.step != step
                or spec.worker != worker
            ):
                continue
            if spec.generation is not None and spec.generation != generation:
                continue
            key = (i, generation)
            if key in self._fired:
                continue
            self._fired.add(key)
            return True
        return False


def payload_checksum(payload: Any) -> int:
    """CRC32 over a wire payload's canonical repr.

    The exchange payloads are plain lists of ``(relation, [(key,
    value), …])`` tuples whose reprs are deterministic for the test
    semirings; the checksum guards the coordinator↔worker hop against
    corruption (and gives the fault harness a precise thing to break).
    """
    return zlib.crc32(repr(payload).encode("utf-8", "backslashreplace"))
