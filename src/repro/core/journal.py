"""Crash-safe durability: write-ahead mutation journal + checkpoints.

A long-running service (:mod:`repro.core.serve`) holds a warm
:class:`~repro.core.incremental.IncrementalInstance` in memory; this
module makes that state survive process death.  The design is the
classic WAL pair:

**Journal** — an append-only file of mutation-batch records.  Each
record is one line ``crc32hex payload-json\\n`` where the payload
carries its own sequence number and the encoded mutations; the CRC32
covers the payload bytes, so a torn write (process died mid-``write``)
or a corrupted tail is detected on replay, truncated away with a
:class:`JournalWarning`, and the surviving whole-record prefix loads
normally.  Appends are flushed and ``fsync``'d **before** the mutation
is applied in memory — a batch is either durable or was never
acknowledged.

**Checkpoint** — a JSON snapshot of the full state (EDB database,
warm fixpoint, last applied sequence number) written to a temp file,
``fsync``'d, then atomically ``os.replace``'d over the previous
checkpoint; the journal is rotated (reset to empty) only after the
rename lands.  A reader therefore always sees either the old or the
new checkpoint, never a torn one.

**Recovery** — :class:`DurableInstance` opening a data directory loads
the checkpoint, rebuilds the warm fixpoint without re-solving, and
applies the journal suffix (records with sequence numbers beyond the
checkpoint's) as one net batch through the ordinary incremental-apply
path.  The least fixpoint depends only on the final EDB, and
incremental maintenance is deterministic and byte-identical to
``solve()`` from scratch, so a recovered process converges to exactly
the state an uncrashed one would hold.

**Storage seam** — every call that changes the data directory (open
for create/append, write, flush, fsync, truncate, ``os.replace`` and
the directory fsync) goes through the module-level :data:`STORAGE`, a
:class:`FileStorage`.  Creating ``journal.log`` fsyncs the directory at
once: ``fsync(2)`` makes a file's bytes durable, not its name.  The
crash model the layer is held to is the conservative one of ALICE
(Pillai et al., OSDI 2014): bytes written after a file's last fsync may
be lost or torn at any byte, and a creation or a rename is durable only
after its directory's fsync.  ``tests/test_crash_states.py`` swaps
:data:`STORAGE` for a recorder, enumerates every crash state of a
recorded history under that model, and checks that each reopens to the
fixpoint of exactly the acknowledged batches, or of those plus the one
batch in flight.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple
from warnings import warn

from ..semirings.base import FunctionRegistry, POPS
from .engine import collector_paused
from .incremental import ApplySummary, IncrementalInstance, Mutation
from .instance import Database
from .io import (
    database_from_dict,
    database_to_dict,
    instance_from_dict,
    instance_to_dict,
)
from .rules import Program

JOURNAL_NAME = "journal.log"
CHECKPOINT_NAME = "checkpoint.json"
CHECKPOINT_SCHEMA = "datalogo-checkpoint/1"


class JournalWarning(UserWarning):
    """A recoverable journal anomaly (torn/corrupt tail truncated)."""


class JournalError(RuntimeError):
    """An unrecoverable durability-layer failure (corrupt checkpoint)."""


class FileStorage:
    """The persistence seam: the only calls that change a data dir.

    Reads (replay, checkpoint load, existence checks) bypass it; they
    change nothing a crash could leave half done.
    """

    def open(self, path: str, mode: str):
        return open(path, mode)

    def write(self, handle, data: bytes) -> None:
        handle.write(data)

    def flush(self, handle) -> None:
        handle.flush()

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def truncate(self, handle, length: int) -> None:
        handle.truncate(length)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def fsync_dir(self, path: str) -> None:
        """Make a creation or rename in ``path`` durable (best-effort on
        exotic filesystems)."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-specific
            pass
        finally:
            os.close(fd)


#: The seam every persistence call in this module goes through.
STORAGE = FileStorage()


def encode_record(seq: int, mutations: Sequence[Mutation]) -> bytes:
    """Encode one journal record: ``crc32hex payload-json\\n``.

    The payload JSON carries no literal newlines (``json.dumps``
    escapes them), so records are line-delimited and a torn tail is
    exactly a final line that fails the CRC or the parse.
    """
    payload = json.dumps(
        {"seq": seq, "mutations": [m.as_dict() for m in mutations]},
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def decode_records(
    data: bytes,
) -> Tuple[List[Tuple[int, List[Mutation]]], int, Optional[str]]:
    """Decode a journal image into whole records plus the good length.

    Returns ``(records, good_length, anomaly)``: every record that
    passes the CRC and parses, the byte offset up to which the file is
    intact, and a description of the first anomaly (``None`` on a clean
    file).  Decoding stops at the first bad line — a mid-file
    corruption invalidates everything after it, because sequence
    numbers must replay in order.
    """
    records: List[Tuple[int, List[Mutation]]] = []
    offset = 0
    for line in data.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            return records, offset, "torn final record (no newline)"
        body = line[:-1]
        crc_hex, sep, payload = body.partition(b" ")
        if not sep or len(crc_hex) != 8:
            return records, offset, "malformed record framing"
        try:
            expected = int(crc_hex, 16)
        except ValueError:
            return records, offset, "malformed CRC field"
        if zlib.crc32(payload) != expected:
            return records, offset, "CRC mismatch"
        try:
            doc = json.loads(payload.decode("utf-8"))
            seq = int(doc["seq"])
            mutations = [Mutation.from_dict(m) for m in doc["mutations"]]
        except (ValueError, KeyError, TypeError) as exc:
            return records, offset, f"undecodable payload ({exc})"
        if records and seq <= records[-1][0]:
            return records, offset, "non-monotonic sequence number"
        records.append((seq, mutations))
        offset += len(line)
    return records, offset, None


class MutationJournal:
    """The append-only, CRC-checksummed write-ahead journal file."""

    def __init__(self, path: str):
        self.path = path
        self._handle = None

    def _open(self, mode: str):
        """Open the journal for writing; a creation is made durable at
        once, or every record appended until the next checkpoint's
        directory fsync could vanish with the file."""
        created = not os.path.exists(self.path)
        handle = STORAGE.open(self.path, mode)
        if created:
            STORAGE.fsync_dir(os.path.dirname(self.path) or ".")
        return handle

    def append(self, seq: int, mutations: Sequence[Mutation]) -> None:
        """Durably append one batch record (write + flush + fsync)."""
        if self._handle is None:
            self._handle = self._open("ab")
        handle = self._handle
        STORAGE.write(handle, encode_record(seq, mutations))
        STORAGE.flush(handle)
        STORAGE.fsync(handle)

    def size(self) -> int:
        """The journal's current on-disk length in bytes."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def truncate(self, length: int) -> None:
        """Durably cut the journal back to ``length`` bytes.

        Used to scrub a record whose in-memory apply failed: the batch
        was never acknowledged, so it must not be replayed on recovery.
        """
        self.close()
        if not os.path.exists(self.path):
            return
        with STORAGE.open(self.path, "r+b") as handle:
            STORAGE.truncate(handle, length)
            STORAGE.fsync(handle)

    def replay(self) -> List[Tuple[int, List[Mutation]]]:
        """Read every whole record, truncating a torn/corrupt tail.

        A detected anomaly truncates the file to its intact prefix and
        warns — the un-acknowledged suffix is gone, the acknowledged
        prefix replays normally.
        """
        if not os.path.exists(self.path):
            return []
        self.close()
        with open(self.path, "rb") as handle:
            data = handle.read()
        records, good_length, anomaly = decode_records(data)
        if anomaly is not None:
            warn(
                f"journal {self.path}: {anomaly} at byte {good_length}; "
                f"truncating {len(data) - good_length} trailing bytes "
                f"({len(records)} whole records survive)",
                JournalWarning,
                stacklevel=2,
            )
            self.truncate(good_length)
        return records

    def reset(self) -> None:
        """Rotate after a checkpoint: every record is now redundant."""
        self.close()
        with self._open("wb") as handle:
            STORAGE.fsync(handle)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def write_checkpoint(data_dir: str, payload: Dict[str, Any]) -> None:
    """Atomically publish a checkpoint: temp file + fsync + rename +
    directory fsync."""
    path = os.path.join(data_dir, CHECKPOINT_NAME)
    tmp = path + ".tmp"
    # One-shot ``dumps``: ``json.dump`` streams through the pure-Python
    # encoder, ``dumps`` runs the C one (same bytes).
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with STORAGE.open(tmp, "wb") as handle:
        STORAGE.write(handle, data.encode("utf-8"))
        STORAGE.flush(handle)
        STORAGE.fsync(handle)
    STORAGE.replace(tmp, path)
    STORAGE.fsync_dir(data_dir)


def load_checkpoint(data_dir: str) -> Optional[Dict[str, Any]]:
    """Load the published checkpoint, or ``None`` when absent.

    The atomic-rename protocol means a present checkpoint is never
    torn; one that fails to parse is real corruption (bad disk, manual
    edit) and raises :class:`JournalError` rather than silently
    re-solving from nothing.
    """
    path = os.path.join(data_dir, CHECKPOINT_NAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise JournalError(f"corrupt checkpoint {path}: {exc}") from exc
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise JournalError(
            f"{path}: unknown checkpoint schema {payload.get('schema')!r}"
        )
    return payload


class DurableInstance:
    """An :class:`IncrementalInstance` whose state survives crashes.

    Opening a data directory either recovers (checkpoint + journal
    suffix replay) or, given an initial ``database``, solves once and
    writes the first checkpoint.  :meth:`apply` is write-ahead: the
    batch is durably journaled before it touches memory, and every
    ``checkpoint_every`` batches the full state is re-checkpointed and
    the journal rotated.

    Stats (merged with the wrapped instance's in
    :meth:`stats_snapshot`): ``journal_records`` (batches appended),
    ``journal_replays`` (records recovery re-applied, all of them in
    one batch),
    ``checkpoint_writes``, ``recoveries``, ``journal_skips`` (replay
    records already covered by the checkpoint), ``apply_aborts``
    (journaled batches scrubbed because their in-memory apply failed).
    """

    def __init__(
        self,
        data_dir: str,
        program: Program,
        pops: POPS,
        database: Optional[Database] = None,
        functions: Optional[FunctionRegistry] = None,
        checkpoint_every: int = 64,
        plan: str = "indexed",
        engine: str = "auto",
        max_iterations: int = 100_000,
        dred_cap: Optional[int] = None,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be ≥ 1, got {checkpoint_every}"
            )
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.program = program
        self.pops = pops
        self.checkpoint_every = checkpoint_every
        self.journal = MutationJournal(os.path.join(data_dir, JOURNAL_NAME))
        self.stats: Dict[str, int] = {
            "journal_records": 0,
            "journal_replays": 0,
            "journal_skips": 0,
            "checkpoint_writes": 0,
            "recoveries": 0,
            "apply_aborts": 0,
        }
        self._inc_kwargs = dict(
            functions=functions,
            plan=plan,
            engine=engine,
            max_iterations=max_iterations,
            dred_cap=dred_cap,
        )
        #: Cleared when a failed apply cannot be rolled back; every
        #: subsequent write raises :class:`JournalError` rather than
        #: journaling against a possibly-desynced in-memory state.
        self.healthy = True
        if os.path.exists(os.path.join(data_dir, CHECKPOINT_NAME)):
            self._recover()
        else:
            if database is None:
                raise ValueError(
                    f"no checkpoint in {data_dir!r} and no initial "
                    "database given"
                )
            self.seq = 0
            self.inc = IncrementalInstance(
                program, database, **self._inc_kwargs
            )
            self.checkpoint()

    def _recover(self) -> None:
        """Open-time recovery: :meth:`_rebuild`, booked as one boot."""
        replays, skips = self._rebuild()
        self.stats["journal_replays"] += replays
        self.stats["journal_skips"] += skips
        self.stats["recoveries"] += 1

    @collector_paused()
    def _rebuild(self) -> Tuple[int, int]:
        """(Re)build the in-memory state purely from disk.

        Runs at open (process restart) and after an aborted apply (the
        in-memory database may hold a half-applied batch): load the
        checkpoint, rebuild the warm fixpoint without re-solving, and
        apply the journal suffix as **one** batch: the mutations of
        every record past the checkpoint, in journal order.
        ``IncrementalInstance.apply`` counts each ``(relation, key)``'s
        last write only, so the batch is exactly the net change from
        the checkpoint's EDB; the least fixpoint depends only on the
        final EDB, so one apply lands where the records applied one by
        one would.  The decode and the apply allocate the whole
        fixpoint and no garbage cycles, so the cyclic collector is
        paused for them.  Returns ``(records replayed, records
        skipped)``; the caller books them.
        """
        checkpoint = load_checkpoint(self.data_dir)
        if checkpoint is None:
            raise JournalError(
                f"no checkpoint in {self.data_dir!r} to recover from"
            )
        ck_pops = checkpoint.get("pops")
        if ck_pops != self.pops.name:
            raise JournalError(
                f"checkpoint in {self.data_dir!r} was written under value "
                f"space {ck_pops!r}; refusing to decode it as "
                f"{self.pops.name!r}"
            )
        self.seq = int(checkpoint["seq"])
        self.inc = IncrementalInstance(
            self.program,
            database_from_dict(self.pops, checkpoint["database"]),
            warm_instance=instance_from_dict(
                self.pops, checkpoint["instance"]
            ),
            warm_steps=int(checkpoint.get("steps", 0)),
            **self._inc_kwargs,
        )
        suffix: List[Mutation] = []
        replays = skips = 0
        for seq, mutations in self.journal.replay():
            if seq <= self.seq:
                # Covered by the checkpoint: a crash between the
                # checkpoint rename and the journal rotation leaves
                # already-applied records behind.
                skips += 1
                continue
            suffix.extend(mutations)
            self.seq = seq
            replays += 1
        if replays:
            self.inc.apply(suffix)
        # The replayed records are still un-checkpointed: the next
        # checkpoint comes due where an uncrashed run's would.
        self._since_checkpoint = replays
        return replays, skips

    def _rollback(self) -> None:
        """Rebuild the live state from disk after a failed apply.

        Not a boot: ``recoveries``, ``journal_replays`` and
        ``journal_skips`` stay put, and the wrapped instance's counters
        carry over unchanged (the rebuild's replay restores state, it is
        not maintenance work a client asked for).  Every version counter
        moves past its pre-rollback value, so a read cached from the
        failed batch's half-applied state never matches a version again.
        """
        live = self.inc
        self._rebuild()
        self.inc.stats = live.stats
        for relation in set(live.versions) | set(self.inc.versions):
            self.inc.versions[relation] = live.versions.get(relation, 0) + 1

    # ------------------------------------------------------------------
    @property
    def instance(self):
        return self.inc.instance

    @property
    def database(self):
        return self.inc.database

    @property
    def versions(self) -> Dict[str, int]:
        return self.inc.versions

    def query(self, relation: str, key) -> Any:
        return self.inc.query(relation, key)

    def stats_snapshot(self) -> Dict[str, Any]:
        """The merged durability + incremental-maintenance counters."""
        out: Dict[str, Any] = dict(self.inc.stats)
        out.update(self.stats)
        out["seq"] = self.seq
        out["warm_tuples"] = self.inc.instance.size()
        return out

    # ------------------------------------------------------------------
    def _abort_batch(self, pre_length: int, rebuild: bool) -> None:
        """Scrub a batch that was journaled but never acknowledged.

        Truncating back to the pre-append length keeps the journal a
        clean prefix of acknowledged records — without it, the next
        successful batch would reuse the failed record's sequence
        number, and recovery's monotonicity check would replay the
        failed batch while silently truncating everything acknowledged
        after it.  ``rebuild`` re-derives the in-memory state from disk
        (the failed apply may have half-mutated the database).  If the
        rollback itself fails, the instance is marked unhealthy and
        refuses further writes.
        """
        self.stats["apply_aborts"] += 1
        try:
            self.journal.truncate(pre_length)
            if rebuild:
                self._rollback()
        except Exception as exc:  # noqa: BLE001 — last-ditch containment
            self.healthy = False
            warn(
                f"durable instance in {self.data_dir!r} could not roll "
                f"back a failed apply ({exc!r}); marking it unhealthy — "
                "writes are refused until the data dir is reopened",
                JournalWarning,
                stacklevel=3,
            )

    @collector_paused()
    def apply(self, mutations: Sequence[Any]) -> ApplySummary:
        """Write-ahead apply: journal (durable) → memory → checkpoint.

        Malformed batches raise :class:`ValueError` before any byte is
        journaled.  A batch is acknowledged (the summary returns) only
        after both the durable append and the in-memory apply; a crash
        between them is recovered by replay.  An apply that *fails*
        (rather than crashes — e.g. the full re-solve fallback diverges)
        is aborted: the journaled record is truncated away and the
        in-memory state rebuilt from disk, so the failed batch is
        neither visible live nor replayed on recovery.
        """
        if not self.healthy:
            raise JournalError(
                f"durable instance in {self.data_dir!r} is unhealthy "
                "after a failed rollback; reopen the data dir to recover"
            )
        muts = [
            m if isinstance(m, Mutation) else Mutation.from_dict(m)
            for m in mutations
        ]
        self.inc.validate(muts)
        seq = self.seq + 1
        pre_length = self.journal.size()
        try:
            self.journal.append(seq, muts)
        except Exception:
            # A torn real append (disk full) must not be left in place:
            # a later complete record would fuse with the torn bytes and
            # be truncated away on recovery despite being acknowledged.
            self._abort_batch(pre_length, rebuild=False)
            raise
        try:
            summary = self.inc.apply(muts)
        except Exception:
            self._abort_batch(pre_length, rebuild=True)
            raise
        self.seq = seq
        self.stats["journal_records"] += 1
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()
        return summary

    @collector_paused()
    def checkpoint(self) -> None:
        """Snapshot the full state atomically, then rotate the journal."""
        if not self.healthy:
            raise JournalError(
                f"durable instance in {self.data_dir!r} is unhealthy; "
                "refusing to checkpoint a possibly-desynced state"
            )
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "seq": self.seq,
            "steps": self.inc.steps,
            "pops": self.pops.name,
            "database": database_to_dict(self.inc.database),
            "instance": instance_to_dict(self.inc.instance),
        }
        write_checkpoint(self.data_dir, payload)
        self.journal.reset()
        self._since_checkpoint = 0
        self.stats["checkpoint_writes"] += 1

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "DurableInstance":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
