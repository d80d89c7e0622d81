"""Sharded multi-process semi-naïve evaluation (delta-shipping exchange).

True multicore for GIL builds, BigDatalog-style: the coordinator runs
Algorithm 3's outer loop while ``N`` persistent workers each run the
**identical** differential iteration
(:meth:`~repro.core.seminaive.SemiNaiveEvaluator.contributions`)
with the driving delta restricted to the hash partition they own.

Why this is byte-identical to the single-process engines: every match
of a differential variant contains exactly one delta tuple (at the
variant's occurrence ``j`` — Theorem 6.5), so the owner partition of
the delta induces a *disjoint* partition of the match set.  Worker
``i``'s bucket is the single-process bucket restricted to its matches,
accumulated in the single-process enumeration order; the coordinator
⊕-merges the buckets in shard order 0‥N-1, subtracts against the
master ``new`` store, and applies the resulting delta exactly as
:meth:`~repro.core.seminaive.SemiNaiveEvaluator.run` would.  The
per-iteration ``valuations``/``products`` counters partition with the
matches, so their shard sums are asserted equal to the single-process
counts by the differential tests.  (Scan-shaped counters —
``scanned_keys``, ``probes`` — do *not* partition: each worker probes
its own full replica.)

What moves over the wire: **delta tuples only**, never store pickles
or closures.  Workers are forked (or, on free-threaded builds where
the GIL is off, plain threads — no pickling at all), bootstrap
``J⁽¹⁾ = F(0̄)`` locally from the database they inherited, and compile
their own kernels; each exchange round ships each relation's fresh
delta either **routed** (only the owner shard receives its slice — the
planner proved every probe of the relation agrees with the driver on
the sharding key, see :func:`repro.core.planner.broadcast_relations`)
or **broadcast** (every shard receives the full delta and still drives
only the subset it owns).  Exchange volume is counted in
``stats["exchange_rounds"]`` / ``stats["exchange_tuples"]``.

Robustness — the self-healing ladder.  The coordinator's master stores
are authoritative: worker results are only merged once **all** ``N``
replies for a step have arrived, so the master state at the top of any
step is a consistent fixpoint prefix from which any worker can be
reconstructed.  A worker fault therefore never costs more than a
replay:

1. **Restart + replay** — a worker that dies, errors, misses its
   per-step heartbeat deadline (``DATALOGO_SHARD_DEADLINE_S``, default
   30 s) or keeps corrupting the exchange is re-forked with a bumped
   generation, restored from the master ``new``/``old``/``delta``
   stores, and replays the in-flight step against its owned slice
   (``stats["shard_restarts"]``).  At most ``DATALOGO_SHARD_RESTARTS``
   (default 3) restarts are spent per pool width.
2. **Demotion** — when the restart budget is exhausted, the pool is
   rebuilt at half the width (re-planned sharding, every worker
   restored from master) and the step is retried
   (``stats["shard_demotions"]``).
3. **Single-process fallback** — only below two workers does the
   coordinator warn, bump ``stats["shard_fallbacks"]`` (plus
   ``stats["shard_stall_fallbacks"]`` when the terminal fault was a
   stalled heartbeat), and finish the fixpoint from its own master
   state.

Exchange payloads carry a CRC32 (:func:`repro.core.guardrails.payload_checksum`)
in both directions; a mismatch is retransmitted exactly once
(``stats["crc_retransmits"]``) before the worker is declared bad and
healed.  All of it is driven deterministically by the
``DATALOGO_FAULT`` spec (:class:`repro.core.guardrails.FaultPlan`):
``crash@2:1`` kills worker 1 at step 2, ``stall@…`` wedges it,
``corrupt@…`` flips its outgoing checksum, and a trailing ``:*`` makes
the fault survive restarts so tests can walk the whole ladder.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import sys
import threading
import time
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..semirings.base import FunctionRegistry, Value
from .guardrails import (
    Budget,
    BudgetExceeded,
    FaultPlan,
    PartialResult,
    attach_partial,
    payload_checksum,
)
from .instance import Database, Instance, Key
from .naive import EvalStats, EvaluationResult
from .planner import ShardingPlan, build_sharding_plan
from .rules import Program
from .seminaive import SemiNaiveEvaluator

#: Force the thread pool even on GIL builds (protocol tests).
_THREADS_ENV = "DATALOGO_SHARD_THREADS"
#: Per-step heartbeat deadline in seconds (``0`` disables).
_DEADLINE_ENV = "DATALOGO_SHARD_DEADLINE_S"
#: Worker restarts the coordinator may spend per pool width.
_RESTARTS_ENV = "DATALOGO_SHARD_RESTARTS"

_DEFAULT_DEADLINE_S = 30.0
_DEFAULT_RESTARTS = 3

#: How often blocking receives wake up to check worker liveness (s).
_POLL_INTERVAL = 0.05


class ShardWorkerError(RuntimeError):
    """A shard worker died, errored, or missed its deadline."""

    def __init__(self, message: str, stall: bool = False):
        super().__init__(message)
        #: ``True`` when the fault was a missed heartbeat deadline —
        #: threaded through to ``stats["shard_stall_fallbacks"]``.
        self.stall = stall


class _PoolFault(Exception):
    """The pool cannot complete the current step even after healing."""

    def __init__(self, reason: BaseException):
        super().__init__(str(reason))
        self.reason = reason


def _use_threads() -> bool:
    """Threads instead of processes: free-threaded builds (no GIL to
    serialize the workers, no exchange pickling needed), platforms
    without ``fork``, or the explicit test override."""
    if os.environ.get(_THREADS_ENV):
        return True
    gil_check = getattr(sys, "_is_gil_enabled", None)
    if gil_check is not None and not gil_check():
        return True
    return "fork" not in multiprocessing.get_all_start_methods()


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, "") or default)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, "") or default)
    except ValueError:
        return default


# ---------------------------------------------------------------------------
# Wire encoding: plain (relation, [(key, value), …]) lists, preserving
# store iteration order so worker-side insertion order — and therefore
# enumeration order — matches the single-process run restricted to the
# shard.
# ---------------------------------------------------------------------------


def _decode_instance(payload, pops) -> Instance:
    instance = Instance(pops)
    set_ = instance.set
    for rel, entries in payload:
        for key, value in entries:
            set_(rel, key, value)
    return instance


def _encode_instance(instance: Instance) -> List:
    """The inverse of :func:`_decode_instance` (restore traffic).

    Always materializes fresh lists — in thread mode the payload must
    not alias the master stores, or a restored worker's rotation would
    mutate the coordinator's state.
    """
    return [
        (rel, list(instance.support(rel).items()))
        for rel in instance.relations()
    ]


def _payload_tuples(payload) -> int:
    return sum(len(entries) for _rel, entries in payload)


def _owned_slice(
    delta: Instance, plan: ShardingPlan, worker: int, pops
) -> Instance:
    """The delta tuples worker ``worker`` drives this iteration.

    Routed slices arrive pre-restricted, so re-filtering is a no-op for
    them; broadcast relations (and the locally bootstrapped first
    delta) are cut down here.  Iteration order is preserved, keeping
    the worker's enumeration order the single-process order restricted
    to the shard.
    """
    owned = Instance(pops)
    set_ = owned.set
    for rel in delta.relations():
        for key, value in delta.support(rel).items():
            if plan.owner(rel, key) == worker:
                set_(rel, key, value)
    return owned


# ---------------------------------------------------------------------------
# Worker loop (runs in a forked process or a thread)
# ---------------------------------------------------------------------------


def _worker_loop(
    conn,
    worker: int,
    generation: int,
    program: Program,
    database: Database,
    functions: Optional[FunctionRegistry],
    max_iterations: int,
    plan: str,
    domain: Optional[Sequence[Any]],
    engine: str,
    shard_plan: ShardingPlan,
    in_process: bool,
) -> None:
    """One shard's half of the protocol.

    A fresh worker bootstraps locally on its first ``step`` (the first
    application is deterministic from the inherited program + database
    — nothing to ship); a *restarted* worker instead receives a
    ``("restore", new, old, delta)`` snapshot of the coordinator's
    master state, skipping the bootstrap entirely.  It then serves
    ``("step", t, slice|None, crc)`` requests with
    ``("contrib", t, buckets, valuations, products, crc)`` replies —
    verifying inbound checksums (``("badcrc", t)`` asks the coordinator
    to retransmit) and caching its last clean reply so a
    ``("resend", t)`` can recover a corrupted outbound hop — until
    ``("stop",)`` or EOF.  ``shipped is None`` means "drive the delta
    you already hold" (step 1's bootstrap delta, or a restored one) and
    performs no store rotation.

    Deterministic faults (``DATALOGO_FAULT``) fire here, keyed on
    ``(step, worker, generation)``: ``crash`` exits/raises before
    computing, ``stall`` sleeps past any deadline, ``corrupt`` flips
    the outbound checksum (the cached reply stays clean, so one
    retransmit heals it).
    """
    faults = FaultPlan.from_env()
    try:
        evaluator = SemiNaiveEvaluator(
            program,
            database,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            domain=domain,
            engine=engine,
        )
        new: Optional[Instance] = None
        old: Optional[Instance] = None
        delta: Optional[Instance] = None
        last_reply = None
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return
            if msg[0] == "stop":
                return
            if msg[0] == "restore":
                _cmd, enc_new, enc_old, enc_delta = msg
                new = _decode_instance(enc_new, evaluator.pops)
                old = _decode_instance(enc_old, evaluator.pops)
                delta = _decode_instance(enc_delta, evaluator.pops)
                continue
            if msg[0] == "resend":
                conn.send(last_reply)
                continue
            _cmd, step, shipped, crc = msg
            if new is None:
                # First step of a fresh (non-restored) incarnation.
                new = evaluator.bootstrap()
                delta = new.copy()
                old = Instance(evaluator.pops)
            if shipped is not None:
                if payload_checksum(shipped) != crc:
                    conn.send(("badcrc", step))
                    continue
                # Mirror run()'s store rotation exactly — including on
                # empty slices, so old/new stay one iteration apart.
                # The shipped slice already is δ = F(J) ⊖ J, and
                # (b ⊖ a) ⊖ a = b ⊖ a in a dioid, so the shared step
                # re-derives it unchanged while merging it.
                old = new
                delta, new = evaluator.advance(
                    {rel: dict(entries) for rel, entries in shipped}, new
                )
            if faults.should("crash", step, worker, generation):
                if in_process:
                    os._exit(1)
                raise RuntimeError("crash hook fired")
            if faults.should("stall", step, worker, generation):
                time.sleep(3600.0)
            driving = _owned_slice(delta, shard_plan, worker, evaluator.pops)
            stats = evaluator.stats
            valuations = stats.valuations
            products = stats.products
            contributions = evaluator.contributions(
                driving, new, old
            )
            payload = [
                (rel, list(bucket.items()))
                for rel, bucket in contributions.items()
            ]
            out_crc = payload_checksum(payload)
            reply = (
                "contrib",
                step,
                payload,
                stats.valuations - valuations,
                stats.products - products,
                out_crc,
            )
            last_reply = reply
            if faults.should("corrupt", step, worker, generation):
                reply = reply[:-1] + (out_crc ^ 0xFFFFFFFF,)
            conn.send(reply)
    except (KeyboardInterrupt, BrokenPipeError):
        pass
    except BaseException as exc:  # surfaced to the coordinator's healer
        try:
            conn.send(("error", repr(exc)))
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Worker handles (process / thread) with a uniform protocol surface
# ---------------------------------------------------------------------------


class _ProcessWorker:
    """A forked worker on a duplex pipe — the GIL-build default."""

    def __init__(self, index: int, generation: int, args: Tuple):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_loop,
            args=(child, index, generation) + args + (True,),
            daemon=True,
        )
        self.process.start()
        child.close()

    def send(self, msg) -> None:
        self.conn.send(msg)

    def recv(self, deadline_at: Optional[float]):
        while True:
            if self.conn.poll(_POLL_INTERVAL):
                try:
                    return self.conn.recv()
                except EOFError:
                    raise ShardWorkerError("worker pipe closed")
            if deadline_at is not None and time.monotonic() > deadline_at:
                raise ShardWorkerError(
                    "worker missed iteration deadline", stall=True
                )
            if not self.process.is_alive():
                # One drain after death: the worker may have replied
                # and exited before we polled.
                if self.conn.poll(0):
                    continue
                raise ShardWorkerError("worker process died")

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except Exception:
            pass
        try:
            self.conn.close()
        except Exception:
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)


class _QueueConn:
    """Queue-backed stand-in for a pipe connection (thread workers)."""

    def __init__(self, inbox: "queue.Queue", outbox: "queue.Queue"):
        self.inbox = inbox
        self.outbox = outbox

    def recv(self):
        return self.inbox.get()

    def send(self, msg) -> None:
        self.outbox.put(msg)


class _ThreadWorker:
    """A thread worker — the free-threaded (nogil) fast path, where the
    'exchange' passes references and ships nothing."""

    def __init__(self, index: int, generation: int, args: Tuple):
        self.inbox: "queue.Queue" = queue.Queue()
        self.outbox: "queue.Queue" = queue.Queue()
        conn = _QueueConn(self.inbox, self.outbox)
        self.thread = threading.Thread(
            target=_worker_loop,
            args=(conn, index, generation) + args + (False,),
            daemon=True,
        )
        self.thread.start()

    def send(self, msg) -> None:
        self.inbox.put(msg)

    def recv(self, deadline_at: Optional[float]):
        while True:
            try:
                return self.outbox.get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                pass
            if deadline_at is not None and time.monotonic() > deadline_at:
                raise ShardWorkerError(
                    "worker missed iteration deadline", stall=True
                )
            if not self.thread.is_alive():
                raise ShardWorkerError("worker thread died")

    def stop(self) -> None:
        self.inbox.put(("stop",))
        self.thread.join(timeout=1.0)


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class ShardedSemiNaiveEvaluator:
    """Algorithm 3 with the per-iteration match set sharded over ``N``
    workers (see the module docstring for the parity argument and the
    self-healing ladder).

    Accepts the same scheduler-facing knobs as
    :class:`~repro.core.seminaive.SemiNaiveEvaluator` plus ``workers``,
    an optional per-iteration ``deadline`` (seconds; ``None`` reads
    ``DATALOGO_SHARD_DEADLINE_S``, default 30 s, ``0`` disables) and an
    optional solve :class:`~repro.core.guardrails.Budget`.  The
    coordinator keeps the master stores, so the published fixpoint
    never depends on worker-local state; ``stats`` valuations/products
    aggregate the workers' exactly, while per-worker bookkeeping
    counters (rule applications, probe counts) stay worker-local by
    design.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        max_iterations: int = 100_000,
        plan: str = "indexed",
        domain: Optional[Sequence[Any]] = None,
        stats: Optional[EvalStats] = None,
        indexes=None,
        engine: str = "auto",
        workers: int = 2,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be ≥ 1, got {workers}")
        self.workers = workers
        if deadline is None:
            deadline = _env_float(_DEADLINE_ENV, _DEFAULT_DEADLINE_S)
        self.deadline = deadline if deadline and deadline > 0 else None
        self.budget = budget
        self.master = SemiNaiveEvaluator(
            program,
            database,
            functions=functions,
            max_iterations=max_iterations,
            plan=plan,
            domain=domain,
            stats=stats,
            indexes=indexes,
            engine=engine,
            budget=budget,
        )
        self._program = program
        self.shard_plan = build_sharding_plan(program, workers)
        # Everything a worker needs to rebuild the evaluator locally;
        # under fork this is inherited, never pickled.
        self._worker_args = self._build_worker_args(
            program, database, functions, max_iterations, plan, engine
        )
        self._base_args = (
            program, database, functions, max_iterations, plan, engine,
        )
        #: Restart budget per pool width (replenished on demotion).
        self._heal_budget = max(0, _env_int(_RESTARTS_ENV, _DEFAULT_RESTARTS))
        self._restarts_left = self._heal_budget
        #: Monotonic incarnation counter: every replacement worker gets
        #: a fresh generation, so a ``:0``-pinned fault spec never
        #: re-fires on replay while ``:*`` survives every restart.
        self._gen_counter = 0
        #: Master state at the top of the in-flight step (for restores),
        #: and its lazily built wire encoding.
        self._state: Optional[Tuple[Instance, Instance, Instance]] = None
        self._enc_state = None

    def _build_worker_args(
        self, program, database, functions, max_iterations, plan, engine
    ) -> Tuple:
        return (
            program,
            database,
            functions,
            max_iterations,
            plan,
            tuple(self.master.domain),
            engine,
            self.shard_plan,
        )

    # -- pool lifecycle -------------------------------------------------
    def _handle_cls(self):
        return _ThreadWorker if _use_threads() else _ProcessWorker

    def _start_pool(self) -> Optional[List]:
        handle = self._handle_cls()
        pool: List = []
        try:
            for i in range(self.workers):
                pool.append(handle(i, 0, self._worker_args))
            return pool
        except Exception as exc:
            self._teardown(pool)
            self._warn_fallback(exc)
            return None

    def _teardown(self, pool: Optional[List]) -> None:
        for worker in pool or ():
            try:
                worker.stop()
            except Exception:
                pass

    def _warn_fallback(self, reason) -> None:
        join = self.master.stats.join
        join.shard_fallbacks += 1
        if getattr(reason, "stall", False):
            join.shard_stall_fallbacks += 1
        warnings.warn(
            f"sharded evaluation fell back to single-process: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- healing --------------------------------------------------------
    def _encoded_state(self):
        if self._enc_state is None:
            new, old, delta = self._state
            self._enc_state = (
                _encode_instance(new),
                _encode_instance(old),
                _encode_instance(delta),
            )
        return self._enc_state

    def _spawn_restored(self, index: int, step: Optional[int]):
        """A replacement worker restored from the master state.

        The restore snapshot is the *post-rotation* state of the
        in-flight step, so the replacement replays with
        ``("step", step, None, None)`` — it cuts its owned slice from
        the restored full delta locally; no rotation, no re-shipping.
        Restore traffic is deliberately not counted as exchange volume.
        """
        self._gen_counter += 1
        worker = self._handle_cls()(
            index, self._gen_counter, self._worker_args
        )
        enc_new, enc_old, enc_delta = self._encoded_state()
        worker.send(("restore", enc_new, enc_old, enc_delta))
        if step is not None:
            worker.send(("step", step, None, None))
        return worker

    def _heal(self, pool: List, index: int, step: int, exc: BaseException):
        """Restart-and-replay rung: replace one bad worker in place."""
        if self._restarts_left <= 0:
            raise _PoolFault(exc)
        self._restarts_left -= 1
        try:
            pool[index].stop()
        except Exception:
            pass
        try:
            replacement = self._spawn_restored(index, step)
        except Exception as spawn_exc:
            raise _PoolFault(spawn_exc)
        self.master.stats.join.shard_restarts += 1
        pool[index] = replacement

    def _demote(self, pool: List, step: int, fault: _PoolFault):
        """Demotion rung: rebuild the pool at half width and replay.

        Returns the smaller pool, or ``None`` after warning + falling
        back to single-process (the final rung).  Every demoted pool
        gets a fresh restart budget.
        """
        self._teardown(pool)
        width = len(pool) // 2
        if width < 2:
            self._warn_fallback(fault.reason)
            return None
        join = self.master.stats.join
        join.shard_demotions += 1
        self.workers = width
        self.shard_plan = build_sharding_plan(self._program, width)
        program, database, functions, max_iterations, plan, engine = (
            self._base_args
        )
        self._worker_args = self._build_worker_args(
            program, database, functions, max_iterations, plan, engine
        )
        self._restarts_left = self._heal_budget
        new_pool: List = []
        try:
            for i in range(width):
                new_pool.append(self._spawn_restored(i, None))
        except Exception as exc:
            self._teardown(new_pool)
            self._warn_fallback(exc)
            return None
        return new_pool

    # -- exchange -------------------------------------------------------
    def _slices(self, delta: Instance) -> List[List]:
        """Per-worker exchange payloads for one fresh delta: routed
        relations go only to their owner shard, broadcast relations to
        every shard, both preserving store iteration order."""
        plan = self.shard_plan
        per_worker: List[Dict[str, List]] = [{} for _ in range(self.workers)]
        for rel in delta.relations():
            routed = plan.routed(rel)
            for key, value in delta.support(rel).items():
                if routed:
                    targets: Tuple[int, ...] = (plan.owner(rel, key),)
                else:
                    targets = tuple(range(self.workers))
                for t in targets:
                    per_worker[t].setdefault(rel, []).append((key, value))
        return [list(slots.items()) for slots in per_worker]

    def _deadline_at(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return time.monotonic() + self.deadline

    def _collect(self, pool: List, index: int, step: int, slices):
        """One worker's reply for ``step``, healing it as needed.

        CRC mismatches get exactly one retransmit per direction
        (``crc_retransmits``) before the worker is declared bad; a bad,
        dead or stalled worker goes through :meth:`_heal` and the
        (restored) replacement's reply is awaited instead.  Raises
        :class:`_PoolFault` once the restart budget is spent.
        """
        join = self.master.stats.join
        resent_out = False
        resent_in = False
        deadline_at = self._deadline_at()
        while True:
            try:
                msg = pool[index].recv(deadline_at)
            except ShardWorkerError as exc:
                self._heal(pool, index, step, exc)
                resent_out = resent_in = False
                deadline_at = self._deadline_at()
                continue
            kind = msg[0]
            if kind == "contrib":
                _cmd, msg_step, payload, valuations, products, crc = msg
                if msg_step != step:
                    self._heal(
                        pool, index, step,
                        ShardWorkerError(
                            f"worker answered step {msg_step} for {step}"
                        ),
                    )
                    resent_out = resent_in = False
                    deadline_at = self._deadline_at()
                    continue
                if payload_checksum(payload) != crc:
                    if resent_in:
                        self._heal(
                            pool, index, step,
                            ShardWorkerError(
                                "worker reply corrupt after retransmit"
                            ),
                        )
                        resent_in = False
                        deadline_at = self._deadline_at()
                        continue
                    join.crc_retransmits += 1
                    resent_in = True
                    pool[index].send(("resend", step))
                    continue
                return payload, valuations, products
            if kind == "badcrc":
                if resent_out or slices is None:
                    self._heal(
                        pool, index, step,
                        ShardWorkerError(
                            "worker rejected slice after retransmit"
                        ),
                    )
                    resent_out = False
                    deadline_at = self._deadline_at()
                    continue
                join.crc_retransmits += 1
                resent_out = True
                pool[index].send(
                    (
                        "step",
                        step,
                        slices[index],
                        payload_checksum(slices[index]),
                    )
                )
                continue
            detail = msg[1] if len(msg) > 1 else kind
            self._heal(
                pool, index, step,
                ShardWorkerError(f"worker failed: {detail}"),
            )
            resent_out = resent_in = False
            deadline_at = self._deadline_at()

    def _pool_step(
        self, pool: List, step: int, delta: Instance, restored: bool = False
    ) -> Dict[str, Dict[Key, Value]]:
        """One exchanged iteration against the (healing) pool.

        Collects **all** replies before merging anything, in worker
        order — a mid-step fault therefore never publishes a partial
        merge, and the counters only reflect the replies of the pool
        that actually completed the step.  ``restored=True`` (a
        demotion replay) skips the shipping phase: every worker already
        holds the full post-rotation state from its restore snapshot.
        Raises :class:`_PoolFault` when healing cannot save the step.
        """
        stats = self.master.stats
        join = stats.join
        add = self.master.pops.add
        if step == 1 or restored:
            slices = None
        else:
            slices = self._slices(delta)
            crcs = [payload_checksum(s) for s in slices]
        for i in range(len(pool)):
            try:
                if slices is None:
                    pool[i].send(("step", step, None, None))
                else:
                    pool[i].send(("step", step, slices[i], crcs[i]))
                    join.exchange_tuples += _payload_tuples(slices[i])
            except Exception as exc:
                # Healing replays from the restore snapshot, so the
                # failed send is not retried.
                self._heal(
                    pool, i, step,
                    ShardWorkerError(f"worker send failed: {exc!r}"),
                )
        replies = [
            self._collect(pool, i, step, slices) for i in range(len(pool))
        ]
        merged: Dict[str, Dict[Key, Value]] = {}
        for payload, valuations, products in replies:
            stats.valuations += valuations
            stats.products += products
            join.exchange_tuples += _payload_tuples(payload)
            for rel, entries in payload:
                bucket = merged.setdefault(rel, {})
                for key, value in entries:
                    if key in bucket:
                        bucket[key] = add(bucket[key], value)
                    else:
                        bucket[key] = value
        join.exchange_rounds += 1
        return merged

    # -- the fixpoint ---------------------------------------------------
    def run(self, capture_trace: bool = False) -> EvaluationResult:
        """Run Algorithm 3 to fixpoint across the shard pool."""
        if capture_trace:
            raise ValueError(
                "sharded evaluation keeps no global iteration chain; "
                "use engine_workers=1 with capture_trace"
            )
        master = self.master
        stats = master.stats
        budget = self.budget
        try:
            new = master.bootstrap()
        except BudgetExceeded as exc:
            attach_partial(
                exc, self._partial(Instance(master.pops), 0, None)
            )
            raise
        delta = new.copy()
        old = Instance(master.pops)
        if delta.size() == 0:
            return self._result(new, steps=1)
        pool = self._start_pool()
        try:
            for step in range(1, master.max_iterations):
                stats.iterations += 1
                contributions = None
                if pool is not None:
                    self._state = (new, old, delta)
                    self._enc_state = None
                    restored = False
                    while pool is not None and contributions is None:
                        try:
                            contributions = self._pool_step(
                                pool, step, delta, restored=restored
                            )
                        except _PoolFault as fault:
                            pool = self._demote(pool, step, fault)
                            restored = True
                if contributions is None:
                    try:
                        contributions = master.contributions(
                            delta, new, old
                        )
                    except BudgetExceeded as exc:
                        attach_partial(exc, self._partial(new, step, delta))
                        raise
                old = new
                delta, new = master.advance(contributions, new)
                if delta.size() == 0:
                    return self._result(new, steps=step)
                if budget is not None:
                    try:
                        budget.charge_size(new.size())
                    except BudgetExceeded as exc:
                        attach_partial(
                            exc, self._partial(new, step + 1, delta)
                        )
                        raise
            raise BudgetExceeded(
                f"semi-naïve evaluation did not converge within "
                f"{master.max_iterations} iterations",
                resource="iterations",
                limit=master.max_iterations,
                spent=master.max_iterations,
                partial=self._partial(new, master.max_iterations, delta),
                verdict=budget.verdict if budget is not None else None,
            )
        finally:
            self._teardown(pool)

    def _partial(
        self, instance: Instance, steps: int, delta: Optional[Instance]
    ) -> PartialResult:
        snapshot = self.master.stats.snapshot()
        snapshot["shard_workers"] = self.workers
        return PartialResult(
            instance=instance, steps=steps, stats=snapshot, delta=delta
        )

    def _result(self, instance: Instance, steps: int) -> EvaluationResult:
        snapshot = self.master.stats.snapshot()
        snapshot["shard_workers"] = self.workers
        snapshot["shard_broadcast"] = sorted(self.shard_plan.broadcast)
        return EvaluationResult(
            instance=instance, steps=steps, trace=[], stats=snapshot
        )
