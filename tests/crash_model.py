"""Every crash state of a recorded data-directory history, and its check.

A :class:`Recorder` stands in for ``repro.core.journal.STORAGE``: it
performs each persistence call and logs it.  :func:`crash_states`
replays every prefix of that log under the conservative crash model of
ALICE (Pillai et al., "All File Systems Are Not Created Equal", OSDI
2014):

* bytes written to a file after its last fsync may be lost, or torn at
  any byte.  The cuts enumerated are: none, all, each record boundary
  (a newline) and one mid-record cut per record;
* a file creation or a rename is durable only after an fsync of its
  directory.  Every subset of the directory changes still pending is
  enumerated.

:func:`check` reopens each state through
:class:`~repro.core.journal.DurableInstance` and holds it to one rule:
the reopened instance equals the fixpoint after exactly the
acknowledged batches, or after those plus the one batch in flight at
the crash ("equals": its fingerprint is a from-scratch ``solve()``'s on
that EDB, and its ``seq`` is the number of batches).  It warns with a
:class:`~repro.core.journal.JournalWarning` exactly where the journal's
tail is torn, counts one recovery exactly where a checkpoint exists,
skips exactly the records that checkpoint covers, replays the rest as
one apply, and accepts another batch at ``seq + 1``.  Nothing else
passes; under this model a corrupt checkpoint cannot arise, so a
``JournalError`` is a failure too.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import pytest

from repro import core
from repro.core import journal
from repro.core.incremental import Mutation, fingerprint
from repro.core.journal import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    DurableInstance,
    FileStorage,
    JournalWarning,
    decode_records,
)

#: A crash state: the data directory's files, ``(name, bytes)`` sorted.
State = Tuple[Tuple[str, bytes], ...]

#: A history step that abandons the live instance unclosed, as a killed
#: process leaves it, and reopens the data directory.
REOPEN = "reopen"


def _name(handle) -> str:
    return os.path.basename(handle.name)


class Recorder(FileStorage):
    """The production seam, logging each call after performing it.

    ``ops`` holds one tuple per call; ``events`` holds
    ``(calls so far, kind, batch)`` for each batch that begins, is
    acknowledged or aborts, so a crash point knows what was in flight.
    """

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self.events: List[Tuple[int, str, Optional[int]]] = []

    def mark(self, kind: str, batch: Optional[int] = None) -> None:
        self.events.append((len(self.ops), kind, batch))

    def open(self, path: str, mode: str):
        existed = os.path.exists(path)
        handle = super().open(path, mode)
        self.ops.append(("open", os.path.basename(path), mode, existed))
        return handle

    def write(self, handle, data: bytes) -> None:
        super().write(handle, data)
        self.ops.append(("write", _name(handle), bytes(data)))

    def flush(self, handle) -> None:
        super().flush(handle)
        self.ops.append(("flush", _name(handle)))

    def fsync(self, handle) -> None:
        super().fsync(handle)
        self.ops.append(("fsync", _name(handle)))

    def truncate(self, handle, length: int) -> None:
        super().truncate(handle, length)
        self.ops.append(("truncate", _name(handle), length))

    def replace(self, src: str, dst: str) -> None:
        super().replace(src, dst)
        self.ops.append(
            ("replace", os.path.basename(src), os.path.basename(dst))
        )

    def fsync_dir(self, path: str) -> None:
        super().fsync_dir(path)
        self.ops.append(("fsync_dir",))


def describe(op: tuple) -> str:
    """One log entry, short: ``write journal.log (213 B)``."""
    kind = op[0]
    if kind == "open":
        return f"open {op[1]} {op[2]!r}" + ("" if op[3] else " (creates)")
    if kind == "write":
        return f"write {op[1]} ({len(op[2])} B)"
    if kind == "truncate":
        return f"truncate {op[1]} to {op[2]} B"
    if kind == "replace":
        return f"replace {op[1]} -> {op[2]}"
    if kind == "fsync_dir":
        return "fsync the directory"
    return f"{kind} {op[1]}"


# ---------------------------------------------------------------------------
# The crash model
# ---------------------------------------------------------------------------


@dataclass
class _Inode:
    durable: bytes = b""
    current: bytes = b""
    #: The shortest ``current`` has been since the last fsync.  Writes
    #: only append, so ``current[:low]`` is a prefix of ``durable``.
    low: int = 0

    def cuts(self) -> List[Tuple[str, bytes]]:
        """Each content a crash may leave: the durable bytes, or the
        unsynced truncations persisted plus a cut of the bytes written
        after them."""
        if self.durable == self.current:
            return [("", self.durable)]
        base, rest = self.current[: self.low], self.current[self.low :]
        ends = [i + 1 for i, byte in enumerate(rest) if byte == 0x0A]
        bounds = sorted({0, *ends, len(rest)})
        points = set(bounds)
        points.update(a + (b - a) // 2 for a, b in zip(bounds, bounds[1:]))
        out = {
            base + rest[:p]: f"+{p}/{len(rest)} B" if rest else "truncated"
            for p in sorted(points)
        }
        out.setdefault(self.durable, "unsynced lost")
        return [(label, content) for content, label in out.items()]


class CrashModel:
    """The durable and the current view of one data directory."""

    def __init__(self) -> None:
        self.inodes: List[_Inode] = []
        self.durable_ns: Dict[str, int] = {}
        self.current_ns: Dict[str, int] = {}
        #: Directory changes since its last fsync:
        #: ``(description, source name or None, target name, inode)``.
        self.pending: List[Tuple[str, Optional[str], str, int]] = []

    def _node(self, name: str) -> _Inode:
        return self.inodes[self.current_ns[name]]

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "open":
            _kind, name, mode, existed = op
            if not existed:
                self.inodes.append(_Inode())
                ino = self.current_ns[name] = len(self.inodes) - 1
                self.pending.append((f"create {name}", None, name, ino))
            elif "w" in mode:
                node = self._node(name)
                node.current, node.low = b"", 0
        elif kind == "write":
            self._node(op[1]).current += op[2]
        elif kind == "truncate":
            node = self._node(op[1])
            node.current = node.current[: op[2]]
            node.low = min(node.low, op[2])
        elif kind == "fsync":
            node = self._node(op[1])
            node.durable, node.low = node.current, len(node.current)
        elif kind == "replace":
            _kind, src, dst = op
            ino = self.current_ns.pop(src)
            self.current_ns[dst] = ino
            self.pending.append((f"replace {src} -> {dst}", src, dst, ino))
        elif kind == "fsync_dir":
            self.durable_ns = dict(self.current_ns)
            self.pending = []

    def states(self) -> Iterator[Tuple[str, State]]:
        """Every ``(cut, state)`` a crash right now may leave."""
        for size in range(len(self.pending) + 1):
            for subset in itertools.combinations(self.pending, size):
                ns = dict(self.durable_ns)
                for _what, src, dst, ino in subset:
                    if src is not None and ns.get(src) == ino:
                        del ns[src]
                    ns[dst] = ino
                names = sorted(ns)
                persisted = "[" + ", ".join(c[0] for c in subset) + "]"
                for combo in itertools.product(
                    *(self.inodes[ns[name]].cuts() for name in names)
                ):
                    cut = ", ".join(
                        f"{name} {label}"
                        for name, (label, _c) in zip(names, combo)
                        if label
                    )
                    yield (
                        f"dir changes persisted {persisted}"
                        + (f"; {cut}" if cut else ""),
                        tuple(
                            (name, content)
                            for name, (_l, content) in zip(names, combo)
                        ),
                    )


def crash_states(ops: Sequence[tuple]) -> Iterator[Tuple[int, str, State]]:
    """``(crash point, cut, state)`` for each crash point ``i`` (after
    the first ``i`` calls, ``0 ≤ i ≤ len(ops)``) and each state."""
    model = CrashModel()
    for i in range(len(ops) + 1):
        if i:
            model.apply(ops[i - 1])
        for cut, state in model.states():
            yield i, cut, state


# ---------------------------------------------------------------------------
# Histories: record, enumerate, check
# ---------------------------------------------------------------------------


@dataclass
class History:
    """A scripted life of one data directory.

    ``steps`` are batches (lists of mutations), :data:`REOPEN`, or
    ``("fail", batch)``: a batch whose in-memory apply raises, so the
    instance aborts it.  ``probe`` is the batch every reopened state
    must still accept.
    """

    name: str
    program: Any
    pops: Any
    database: Any
    steps: List[Any]
    probe: List[Mutation]
    checkpoint_every: int = 2
    method: str = "seminaive"

    @property
    def batches(self) -> List[List[Mutation]]:
        """The batches, aborted ones included, in order."""
        return [
            step[1] if isinstance(step, tuple) else step
            for step in self.steps
            if step != REOPEN
        ]


@dataclass
class Recording:
    history: History
    ops: List[tuple]
    events: List[Tuple[int, str, Optional[int]]]

    def applied_at(self, point: int) -> List[Tuple[int, ...]]:
        """The batch sequences a crash after ``point`` calls may
        recover to: the acknowledged ones, plus the one in flight."""
        acked: List[int] = []
        in_flight = None
        for at, kind, batch in self.events:
            if at > point:
                break
            if kind == "begin":
                in_flight = batch
            elif kind == "ack":
                acked.append(in_flight)
                in_flight = None
            else:  # abort
                in_flight = None
        out = [tuple(acked)]
        if in_flight is not None:
            out.append(tuple(acked) + (in_flight,))
        return out


def _failing_apply(mutations):
    raise RuntimeError("apply fails: the batch is aborted")


def record(history: History, data_dir: str, recorder=None) -> Recording:
    """Run ``history`` in ``data_dir`` through a :class:`Recorder`."""
    recorder = recorder if recorder is not None else Recorder()
    kwargs = dict(checkpoint_every=history.checkpoint_every)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(journal, "STORAGE", recorder)
        dur = DurableInstance(
            data_dir, history.program, history.pops,
            database=history.database, **kwargs,
        )
        batches = iter(enumerate(history.batches))
        for step in history.steps:
            if step == REOPEN:
                dur = DurableInstance(
                    data_dir, history.program, history.pops, **kwargs
                )
                continue
            fails = isinstance(step, tuple)
            index, batch = next(batches)
            recorder.mark("begin", index)
            if fails:
                # The live instance only: the abort's rebuild (and
                # every recovery) applies the batch normally.
                dur.inc.apply = _failing_apply
                try:
                    dur.apply(batch)
                except RuntimeError:
                    recorder.mark("abort")
                    continue
                raise AssertionError("the failing batch was acknowledged")
            dur.apply(batch)
            recorder.mark("ack")
        dur.close()
    return Recording(history, recorder.ops, recorder.events)


@dataclass
class Outcome:
    """What reopening one crash state did."""

    error: Optional[str] = None
    seq: int = -1
    fingerprint: str = ""
    warned: bool = False
    skips: int = 0
    replays: int = 0
    recoveries: int = 0
    applies: int = 0
    next_seq: Optional[int] = None


@dataclass
class Violation:
    op_index: int
    op: str
    cut: str
    files: Tuple[str, ...]
    applied: List[Tuple[int, ...]]
    problem: str

    def __str__(self) -> str:
        return (
            f"crash after op {self.op_index} ({self.op}), {self.cut}: "
            f"{self.problem} (files {list(self.files)}, may recover to "
            f"{[len(a) for a in self.applied]} batches)"
        )


@dataclass
class Report:
    crash_points: int = 0
    #: (crash point, state) pairs checked.
    checked: int = 0
    #: Distinct states reopened.
    states: int = 0
    torn: int = 0
    stale: int = 0
    violations: List[Violation] = field(default_factory=list)


def _edb(history: History, applied: Tuple[int, ...]):
    relations = {
        rel: dict(history.database.raw_support(rel) or {})
        for rel in history.program.edbs
    }
    batches = history.batches
    for index in applied:
        for m in batches[index]:
            if m.op == "delete":
                relations[m.relation].pop(m.key, None)
            else:
                relations[m.relation][m.key] = m.value
    return core.Database(pops=history.pops, relations=relations)


def _expected(state: State) -> Tuple[bool, int, int]:
    """(a torn tail to warn of, records the checkpoint covers, records
    past it)."""
    files = dict(state)
    if CHECKPOINT_NAME not in files:
        return False, 0, 0  # a fresh start: the journal is never read
    ck_seq = json.loads(files[CHECKPOINT_NAME])["seq"]
    records, _good, anomaly = decode_records(files.get(JOURNAL_NAME, b""))
    stale = sum(1 for seq, _ in records if seq <= ck_seq)
    return anomaly is not None, stale, len(records) - stale


def reopen(history: History, state: State, data_dir: str) -> Outcome:
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    for name, content in state:
        with open(os.path.join(data_dir, name), "wb") as handle:
            handle.write(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            dur = DurableInstance(
                data_dir, history.program, history.pops,
                database=history.database,
                checkpoint_every=history.checkpoint_every,
            )
        except Exception as exc:  # noqa: BLE001 — every failure is reported
            return Outcome(error=f"reopen raised {exc!r}")
    out = Outcome(
        seq=dur.seq,
        fingerprint=fingerprint(dur.instance),
        warned=any(issubclass(w.category, JournalWarning) for w in caught),
        skips=dur.stats["journal_skips"],
        replays=dur.stats["journal_replays"],
        recoveries=dur.stats["recoveries"],
        applies=dur.inc.stats["incremental_applies"],
    )
    try:
        dur.apply(history.probe)
        out.next_seq = dur.seq
    except Exception as exc:  # noqa: BLE001
        out.error = f"the next batch raised {exc!r}"
    finally:
        dur.close()
    return out


def check(recording: Recording, scratch_dir: str) -> Report:
    """Reopen every crash state of ``recording`` and apply the rule."""
    history = recording.history
    report = Report(crash_points=len(recording.ops) + 1)
    outcomes: Dict[State, Outcome] = {}
    references: Dict[Tuple[int, ...], str] = {}
    for point, cut, state in crash_states(recording.ops):
        report.checked += 1
        outcome = outcomes.get(state)
        if outcome is None:
            outcome = outcomes[state] = reopen(history, state, scratch_dir)
        applied = recording.applied_at(point)
        torn, stale, suffix = _expected(state)
        report.torn += torn
        report.stale += stale > 0

        def fail(problem: str) -> None:
            report.violations.append(Violation(
                point,
                describe(recording.ops[point - 1]) if point else "start",
                cut,
                tuple(name for name, _ in state),
                applied,
                problem,
            ))

        if outcome.error is not None:
            fail(outcome.error)
            continue
        match = [a for a in applied if len(a) == outcome.seq]
        if not match:
            fail(f"recovered seq {outcome.seq}")
            continue
        if match[0] not in references:
            references[match[0]] = fingerprint(core.solve(
                history.program, _edb(history, match[0]),
                method=history.method,
            ).instance)
        if outcome.fingerprint != references[match[0]]:
            fail(f"seq {outcome.seq} is not the fixpoint of its batches")
        if outcome.warned != torn:
            fail(f"JournalWarning {outcome.warned}, torn tail {torn}")
        if (outcome.skips, outcome.replays) != (stale, suffix):
            fail(
                f"skipped {outcome.skips} and replayed {outcome.replays} "
                f"records, {stale} are stale and {suffix} past the checkpoint"
            )
        recovers = any(name == CHECKPOINT_NAME for name, _ in state)
        if outcome.recoveries != recovers:
            fail(f"{outcome.recoveries} recoveries, checkpoint {recovers}")
        if outcome.applies != (1 if suffix else 0):
            fail(f"the suffix took {outcome.applies} applies, not one")
        if outcome.next_seq != outcome.seq + 1:
            fail(f"the next batch took seq {outcome.next_seq}")
    report.states = len(outcomes)
    return report
