"""Durability layer (`core/journal.py`): WAL, checkpoints, recovery.

The headline property: **any byte prefix** of a valid journal —
including a torn mid-record tail — recovers to exactly the state of
replaying the surviving whole records one by one, across
TROP/BOOL/THREE, Trop+_2 (no ⊖) and Viterbi.  Recovery applies them as
one net batch (``TestFoldedRecovery``).
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro import core, programs, workloads
from repro.core.guardrails import FaultPlan
from repro.core.incremental import IncrementalInstance, Mutation, fingerprint
from repro.core.journal import (
    CHECKPOINT_NAME,
    CHECKPOINT_SCHEMA,
    JOURNAL_NAME,
    DurableInstance,
    InjectedCrash,
    JournalError,
    JournalWarning,
    MutationJournal,
    decode_records,
    encode_record,
    load_checkpoint,
    write_checkpoint,
)
from repro.semirings import BOOL, THREE, TROP, VITERBI, TropicalPSemiring


def trop_setup():
    db = core.Database(
        pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
    )
    batches = [
        [Mutation("insert", "E", ("a", "x"), 1.0)],
        [Mutation("insert", "E", ("x", "d"), 1.0),
         Mutation("insert", "E", ("x", "b"), 0.5)],
        [Mutation("delete", "E", ("a", "x"), None)],
        [Mutation("insert", "E", ("c", "x"), 2.0)],
    ]
    return programs.sssp("a"), TROP, db, batches


def bool_setup():
    db = core.Database(
        pops=BOOL,
        relations={"E": {("a", "b"): True, ("b", "c"): True,
                         ("a", "c"): True}},
    )
    batches = [
        [Mutation("insert", "E", ("c", "d"), True)],
        [Mutation("delete", "E", ("a", "b"), None)],
        [Mutation("insert", "E", ("d", "a"), True)],
    ]
    return programs.transitive_closure(), BOOL, db, batches


def three_setup():
    db = core.Database(
        pops=THREE,
        relations={"E": {("a", "b"): True, ("b", "c"): False}},
    )
    batches = [
        [Mutation("insert", "E", ("c", "a"), True)],
        [Mutation("delete", "E", ("b", "c"), None)],
        [Mutation("insert", "E", ("b", "b"), False)],
    ]
    return programs.transitive_closure(), THREE, db, batches


def _bag(w):
    """A canonical Trop+_2 float bag: sorted, positively signed floats."""
    return (float(w), math.inf, math.inf)


def trop_p2_setup():
    # No ⊖: inserts take the warm-naïve path, deletes re-solve.
    pops = TropicalPSemiring(2)
    db = core.Database(
        pops=pops,
        relations={"E": {k: _bag(w) for k, w in workloads.fig_2a_graph().items()}},
    )
    batches = [
        [Mutation("insert", "E", ("d", "a"), _bag(1.5))],
        [Mutation("insert", "E", ("a", "c"), _bag(2.0))],
        [Mutation("delete", "E", ("b", "a"), None)],
        [Mutation("insert", "E", ("c", "x"), _bag(0.5)),
         Mutation("insert", "E", ("x", "b"), _bag(0.25))],
    ]
    return programs.transitive_closure(), pops, db, batches


def viterbi_setup():
    db = core.Database(
        pops=VITERBI,
        relations={"E": {("a", "b"): 0.5, ("b", "c"): 0.9,
                         ("c", "a"): 0.25, ("a", "c"): 0.125}},
    )
    batches = [
        [Mutation("insert", "E", ("c", "d"), 0.75)],
        [Mutation("insert", "E", ("a", "c"), 0.5)],
        [Mutation("delete", "E", ("b", "c"), None)],
        [Mutation("insert", "E", ("d", "a"), 1.0),
         Mutation("insert", "E", ("a", "b"), 0.375)],
    ]
    return programs.transitive_closure(), VITERBI, db, batches


SETUPS = {
    "trop": trop_setup,
    "bool": bool_setup,
    "three": three_setup,
    "trop_p2": trop_p2_setup,
    "viterbi": viterbi_setup,
}


class TestRecordFormat:
    def test_round_trip(self):
        muts = [Mutation("insert", "E", ("a", "b"), 1.5),
                Mutation("delete", "E", ("b", "c"), None)]
        blob = encode_record(3, muts) + encode_record(4, muts[:1])
        records, good, anomaly = decode_records(blob)
        assert anomaly is None and good == len(blob)
        assert [seq for seq, _ in records] == [3, 4]
        assert records[0][1] == muts

    def test_crc_flip_detected(self):
        blob = bytearray(encode_record(1, [Mutation("insert", "E", ("a",), 1.0)]))
        blob[len(blob) // 2] ^= 0xFF
        records, good, anomaly = decode_records(bytes(blob))
        assert records == [] and good == 0 and anomaly is not None

    def test_non_monotonic_seq_rejected(self):
        blob = encode_record(2, [Mutation("insert", "E", ("a",), 1.0)]) + \
            encode_record(2, [Mutation("insert", "E", ("b",), 1.0)])
        records, good, anomaly = decode_records(blob)
        assert len(records) == 1 and anomaly is not None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_prefix_yields_whole_record_prefix(self, data):
        """decode_records(blob[:k]) = the longest whole-record prefix."""
        batches = [
            [Mutation("insert", "E", ("a", "b"), float(i))]
            for i in range(4)
        ]
        blob = b"".join(
            encode_record(i + 1, batch) for i, batch in enumerate(batches)
        )
        cut = data.draw(st.integers(0, len(blob)))
        records, good, _ = decode_records(blob[:cut])
        # good bytes always frame exactly the surviving records
        assert blob[:good] == b"".join(
            encode_record(i + 1, batches[i]) for i in range(len(records))
        )
        # a cut on a record boundary loses nothing before it
        boundaries = []
        off = 0
        for i, batch in enumerate(batches):
            off += len(encode_record(i + 1, batch))
            boundaries.append(off)
        expect_n = sum(1 for b in boundaries if b <= cut)
        assert len(records) == expect_n


class TestJournalPrefixRecovery:
    """Acceptance criterion: arbitrary journal truncation is safe."""

    @pytest.mark.parametrize("name", sorted(SETUPS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_recovers_surviving_whole_records(self, name, data, tmp_path_factory):
        program, pops, db, batches = SETUPS[name]()
        d = str(tmp_path_factory.mktemp(f"jp-{name}"))
        with DurableInstance(
            d, program, pops, database=db, checkpoint_every=100
        ) as dur:
            for batch in batches:
                dur.apply(batch)
        journal_path = os.path.join(d, JOURNAL_NAME)
        blob = open(journal_path, "rb").read()
        cut = data.draw(st.integers(0, len(blob)))
        with open(journal_path, "wb") as f:
            f.write(blob[:cut])
        surviving, _, _ = decode_records(blob[:cut])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", JournalWarning)
            with DurableInstance(
                d, program, pops, checkpoint_every=100
            ) as recovered:
                got = fingerprint(recovered.instance)
                assert recovered.seq == len(surviving)
        program2, pops2, db2, _ = SETUPS[name]()
        ref = IncrementalInstance(program2, db2)
        for _seq, muts in surviving:
            ref.apply(muts)
        assert got == fingerprint(ref.instance)

    def test_torn_tail_truncates_with_warning(self, tmp_path):
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        with DurableInstance(
            d, program, pops, database=db, checkpoint_every=100
        ) as dur:
            for batch in batches[:2]:
                dur.apply(batch)
        journal_path = os.path.join(d, JOURNAL_NAME)
        with open(journal_path, "ab") as f:
            f.write(b"deadbeef {\"seq\": 3, \"mutations\"")  # torn write
        with pytest.warns(JournalWarning):
            with DurableInstance(
                d, program, pops, checkpoint_every=100
            ) as recovered:
                assert recovered.seq == 2
                assert recovered.stats["journal_replays"] == 2


def _journal_batches(d, program, pops, db, batches):
    """Journal ``batches`` into ``d``, none checkpointed; returns the
    live fingerprint."""
    with DurableInstance(
        d, program, pops, database=db, checkpoint_every=100
    ) as dur:
        for batch in batches:
            dur.apply(batch)
        return fingerprint(dur.instance)


class TestFoldedRecovery:
    """Recovery applies the journal suffix as one net batch."""

    def test_n_records_one_apply(self, tmp_path):
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        live = _journal_batches(d, program, pops, db, batches)
        with DurableInstance(d, program, pops) as recovered:
            stats = recovered.stats_snapshot()
            assert stats["incremental_applies"] == 1
            assert stats["journal_replays"] == len(batches)
            assert stats["journal_skips"] == 0
            assert recovered.seq == len(batches)
            assert fingerprint(recovered.instance) == live

    def test_stale_records_skipped_not_applied(self, tmp_path, monkeypatch):
        # crash@truncate:2 publishes the seq-2 checkpoint and leaves
        # records 1 and 2 behind; a third record follows them.
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        dur = DurableInstance(
            d, program, pops, database=db, checkpoint_every=2,
            fault_plan=FaultPlan.parse("crash@truncate:2"),
        )
        dur.apply(batches[0])
        with pytest.raises(InjectedCrash):
            dur.apply(batches[1])
        with open(os.path.join(d, JOURNAL_NAME), "ab") as f:
            f.write(encode_record(3, batches[2]))
        applied = []
        real_apply = IncrementalInstance.apply

        def recording_apply(inc, mutations):
            applied.append(list(mutations))
            return real_apply(inc, mutations)

        monkeypatch.setattr(IncrementalInstance, "apply", recording_apply)
        with DurableInstance(d, program, pops, checkpoint_every=2) as rec:
            assert rec.stats["journal_skips"] == 2
            assert rec.stats["journal_replays"] == 1
            assert rec.inc.stats["incremental_applies"] == 1
            assert rec.seq == 3
            got = fingerprint(rec.instance)
        assert applied == [batches[2]]
        monkeypatch.undo()
        program2, _pops2, db2, _ = trop_setup()
        ref = IncrementalInstance(program2, db2)
        for batch in batches[:3]:
            ref.apply(batch)
        assert got == fingerprint(ref.instance)

    def test_net_empty_suffix_gives_checkpoint(self, tmp_path):
        program, pops, db, _batches = trop_setup()
        d = str(tmp_path)
        with DurableInstance(
            d, program, pops, database=db, checkpoint_every=100
        ) as dur:
            at_checkpoint = fingerprint(dur.instance)
            dur.apply([Mutation("insert", "E", ("a", "q"), 0.5)])
            dur.apply([Mutation("delete", "E", ("a", "q"), None)])
        with DurableInstance(d, program, pops) as recovered:
            assert recovered.seq == 2
            assert recovered.stats["journal_replays"] == 2
            assert recovered.inc.stats["incremental_applies"] == 1
            assert recovered.inc.stats["incremental_fallbacks"] == 0
            assert fingerprint(recovered.instance) == at_checkpoint

    def test_apply_runs_with_collector_paused(self, tmp_path, monkeypatch):
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        _journal_batches(d, program, pops, db, batches)
        seen = []
        real_apply = IncrementalInstance.apply

        def probing_apply(inc, mutations):
            seen.append(gc.isenabled())
            return real_apply(inc, mutations)

        monkeypatch.setattr(IncrementalInstance, "apply", probing_apply)
        assert gc.isenabled()
        DurableInstance(d, program, pops).close()
        assert seen == [False]
        assert gc.isenabled()


class TestCollectorAfterRecovery:
    """Recovery pauses the cyclic collector and always restores it."""

    def _data_dir(self, tmp_path):
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        _journal_batches(d, program, pops, db, batches)
        return d, program, pops

    def test_enabled_again_after_recovery(self, tmp_path):
        d, program, pops = self._data_dir(tmp_path)
        assert gc.isenabled()
        DurableInstance(d, program, pops).close()
        assert gc.isenabled()

    def test_enabled_again_after_wrong_pops(self, tmp_path):
        d, _program, _pops = self._data_dir(tmp_path)
        with pytest.raises(JournalError, match="value space"):
            DurableInstance(d, programs.transitive_closure(), BOOL)
        assert gc.isenabled()

    def test_enabled_again_after_corrupt_checkpoint(self, tmp_path):
        d, program, pops = self._data_dir(tmp_path)
        with open(os.path.join(d, CHECKPOINT_NAME), "w") as f:
            f.write('{"schema": "datalogo-checkpoint/1", "se')
        with pytest.raises(JournalError, match="corrupt checkpoint"):
            DurableInstance(d, program, pops)
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self, tmp_path):
        d, program, pops = self._data_dir(tmp_path)
        gc.disable()
        try:
            DurableInstance(d, program, pops).close()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCrashMatrix:
    """Deterministic DATALOGO_FAULT sites: reopen equals uncrashed."""

    # (site, does the batch survive the crash?)
    MATRIX = [
        ("crash@journal:2", True),    # record fsync'd before the fault
        ("crash@apply:2", True),      # applied + journaled, no checkpoint
        ("corrupt@journal:2", False),  # torn record → truncated on replay
        ("crash@checkpoint:2", True),  # old checkpoint + full journal
        ("crash@truncate:2", True),   # new checkpoint + stale journal
    ]

    @pytest.mark.parametrize("site,survives", MATRIX)
    def test_reopen_equals_uncrashed(self, site, survives, tmp_path):
        program, pops, db, batches = trop_setup()
        crash_dir = str(tmp_path / "crashed")
        ref_dir = str(tmp_path / "reference")
        os.makedirs(crash_dir)
        os.makedirs(ref_dir)
        dur = DurableInstance(
            crash_dir, program, pops, database=db, checkpoint_every=2,
            fault_plan=FaultPlan.parse(site),
        )
        dur.apply(batches[0])
        with pytest.raises(InjectedCrash):
            dur.apply(batches[1])
        # the journal handle is abandoned exactly as a dead process
        # would leave it; recovery happens purely from disk
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", JournalWarning)
            recovered = DurableInstance(
                crash_dir, program, pops, checkpoint_every=2
            )
        program2, pops2, db2, batches2 = trop_setup()
        with DurableInstance(
            ref_dir, program2, pops2, database=db2, checkpoint_every=2
        ) as ref:
            ref.apply(batches2[0])
            if survives:
                ref.apply(batches2[1])
            assert fingerprint(recovered.instance) == fingerprint(ref.instance)
            assert recovered.seq == ref.seq
        assert recovered.stats["recoveries"] == 1
        recovered.close()

    def test_corrupt_tail_warns(self, tmp_path):
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        dur = DurableInstance(
            d, program, pops, database=db, checkpoint_every=100,
            fault_plan=FaultPlan.parse("corrupt@journal:1"),
        )
        with pytest.raises(InjectedCrash):
            dur.apply(batches[0])
        with pytest.warns(JournalWarning):
            DurableInstance(d, program, pops, checkpoint_every=100).close()

    def test_crash_then_continue_then_crash_again(self, tmp_path):
        """Recovery is re-entrant: crash, recover, mutate, crash, recover."""
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        dur = DurableInstance(
            d, program, pops, database=db, checkpoint_every=2,
            fault_plan=FaultPlan.parse("crash@apply:1"),
        )
        with pytest.raises(InjectedCrash):
            dur.apply(batches[0])
        dur2 = DurableInstance(
            d, program, pops, checkpoint_every=1,
            fault_plan=FaultPlan.parse("crash@checkpoint:2"),
        )
        assert dur2.seq == 1
        with pytest.raises(InjectedCrash):
            dur2.apply(batches[1])
        with DurableInstance(d, program, pops, checkpoint_every=2) as dur3:
            assert dur3.seq == 2
            program2, _pops2, db2, _ = trop_setup()
            ref = IncrementalInstance(program2, db2)
            for batch in batches[:2]:
                ref.apply(batch)
            assert fingerprint(dur3.instance) == fingerprint(ref.instance)


class TestApplyAbort:
    """A journaled batch whose in-memory apply *fails* (rather than
    crashes) must be scrubbed: never replayed on recovery, never left
    half-applied in memory, and never allowed to poison the sequence
    numbering of later acknowledged batches."""

    def test_failed_apply_scrubs_journal_and_rolls_back(
        self, tmp_path, monkeypatch
    ):
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        dur = DurableInstance(
            d, program, pops, database=db, checkpoint_every=100
        )
        dur.apply(batches[0])
        good_fp = fingerprint(dur.instance)

        def half_applied_failure(muts):
            # Worst case: the mutated database is published, then the
            # maintenance path (e.g. the full re-solve fallback) blows up.
            dur.inc.database = dur.inc._mutated_database(muts)
            raise RuntimeError("synthetic non-convergence")

        monkeypatch.setattr(dur.inc, "apply", half_applied_failure)
        with pytest.raises(RuntimeError, match="synthetic"):
            dur.apply(batches[1])
        # The abort rebuilt the live state from disk (discarding the
        # monkeypatched instance) and scrubbed the failed record.
        assert dur.seq == 1
        assert dur.healthy
        assert dur.stats["apply_aborts"] == 1
        assert fingerprint(dur.instance) == good_fp
        # The next acknowledged batch takes the freed sequence number
        # cleanly: the journal stays a monotonic prefix with no
        # duplicate for recovery's monotonicity check to stop at.
        dur.apply(batches[1])
        assert dur.seq == 2
        blob = open(os.path.join(d, JOURNAL_NAME), "rb").read()
        records, _good, anomaly = decode_records(blob)
        assert anomaly is None
        assert [seq for seq, _ in records] == [1, 2]
        live_fp = fingerprint(dur.instance)
        dur.close()
        # Recovery replays exactly the acknowledged batches — the
        # failed batch is gone, the later one is not truncated away.
        with warnings.catch_warnings():
            warnings.simplefilter("error", JournalWarning)
            with DurableInstance(
                d, program, pops, checkpoint_every=100
            ) as recovered:
                assert recovered.seq == 2
                assert recovered.stats["journal_replays"] == 2
                assert fingerprint(recovered.instance) == live_fp

    def test_rollback_is_not_booked_as_a_boot(self, tmp_path, monkeypatch):
        """A rolled-back apply on a live instance is no recovery: the
        boot counters stay at zero, the wrapped instance's counters
        never go backwards, and every version counter moves past its
        pre-rollback value (a read cached from the half-applied state
        must not match a version again)."""
        program, pops, db, batches = trop_setup()
        dur = DurableInstance(
            str(tmp_path), program, pops, database=db, checkpoint_every=100
        )
        dur.apply(batches[0])
        before = dur.stats_snapshot()
        versions = dict(dur.versions)

        def half_applied_failure(muts):
            dur.inc.database = dur.inc._mutated_database(muts)
            raise RuntimeError("synthetic non-convergence")

        monkeypatch.setattr(dur.inc, "apply", half_applied_failure)
        with pytest.raises(RuntimeError, match="synthetic"):
            dur.apply(batches[1])
        after = dur.stats_snapshot()
        assert after["recoveries"] == 0
        assert after["journal_replays"] == 0
        assert after["journal_skips"] == 0
        assert after["apply_aborts"] == 1
        for name in IncrementalInstance(program, db).stats:
            assert after[name] == before[name], name
        assert set(dur.versions) >= set(versions)
        for relation, version in versions.items():
            assert dur.versions[relation] > version, relation
        dur.apply(batches[1])
        assert (
            dur.stats_snapshot()["incremental_applies"]
            == before["incremental_applies"] + 1
        )
        dur.close()

    def test_failed_rollback_marks_unhealthy(self, tmp_path, monkeypatch):
        program, pops, db, batches = trop_setup()
        dur = DurableInstance(
            str(tmp_path), program, pops, database=db, checkpoint_every=100
        )
        dur.apply(batches[0])

        def failing_apply(muts):
            raise RuntimeError("synthetic apply failure")

        def failing_truncate(length):
            raise OSError("synthetic disk failure")

        monkeypatch.setattr(dur.inc, "apply", failing_apply)
        monkeypatch.setattr(dur.journal, "truncate", failing_truncate)
        with pytest.warns(JournalWarning, match="unhealthy"):
            with pytest.raises(RuntimeError, match="apply failure"):
                dur.apply(batches[1])
        assert not dur.healthy
        with pytest.raises(JournalError, match="unhealthy"):
            dur.apply(batches[1])
        with pytest.raises(JournalError, match="unhealthy"):
            dur.checkpoint()
        dur.close()

    def test_reopen_under_wrong_pops_fails_fast(self, tmp_path):
        program, pops, db, _batches = trop_setup()
        d = str(tmp_path)
        DurableInstance(d, program, pops, database=db).close()
        with pytest.raises(JournalError, match="value space"):
            DurableInstance(d, programs.transitive_closure(), BOOL)


class TestCheckpointing:
    def test_checkpoint_every_rotates_journal(self, tmp_path):
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        with DurableInstance(
            d, program, pops, database=db, checkpoint_every=2
        ) as dur:
            for batch in batches:
                dur.apply(batch)
            # 4 batches, checkpoint every 2 → ≥ 2 periodic checkpoints
            # (+1 at the initial solve)
            assert dur.stats["checkpoint_writes"] >= 3
            journal_size = os.path.getsize(os.path.join(d, JOURNAL_NAME))
            assert journal_size == 0  # rotated at the last checkpoint
        with DurableInstance(d, program, pops) as recovered:
            assert recovered.stats["journal_replays"] == 0
            assert recovered.seq == len(batches)

    def test_checkpoint_schedule_survives_a_crash(self, tmp_path):
        # Three un-checkpointed records survive the crash; one more
        # batch after the reopen is the fourth, and checkpoints.
        program, pops, db, batches = trop_setup()
        d = str(tmp_path)
        dur = DurableInstance(d, program, pops, database=db, checkpoint_every=4)
        for batch in batches[:3]:
            dur.apply(batch)
        del dur  # abandoned, as a killed process leaves it
        with DurableInstance(d, program, pops, checkpoint_every=4) as reopened:
            assert reopened.stats["journal_replays"] == 3
            reopened.apply(batches[3])
            assert reopened.stats["checkpoint_writes"] == 1
            assert os.path.getsize(os.path.join(d, JOURNAL_NAME)) == 0

    def test_checkpoint_schema_guard(self, tmp_path):
        write_checkpoint(str(tmp_path), {"schema": "bogus/9", "seq": 0})
        with pytest.raises(JournalError, match="schema"):
            load_checkpoint(str(tmp_path))

    def test_checkpoint_bytes_match_streamed_encoder(self, tmp_path):
        # The checkpoint is written with one ``json.dumps``; its bytes
        # are exactly what ``json.dump`` with the same options streams.
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "seq": 7,
            "database": {
                "relations": {"E": [[["b", "é"], 2.5], [["a", "b"], 1]]},
                "bool_relations": {"Src": [["a"]]},
            },
            "instance": {"T": [[["a", "b"], {"inf": True}], [["x"], None]]},
            "values": [{"bag": [1.0, 2.0]}, {"⊤": True}, -0.0, 1e300],
        }
        write_checkpoint(str(tmp_path), payload)
        with open(os.path.join(str(tmp_path), CHECKPOINT_NAME), "rb") as handle:
            written = handle.read()
        streamed = io.StringIO()
        json.dump(payload, streamed, sort_keys=True, separators=(",", ":"))
        assert written == streamed.getvalue().encode("utf-8")

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path)) is None

    def test_stats_snapshot_has_gated_counters(self, tmp_path):
        program, pops, db, batches = trop_setup()
        with DurableInstance(
            str(tmp_path), program, pops, database=db
        ) as dur:
            snap = dur.stats_snapshot()
            for key in (
                "incremental_fallbacks",
                "journal_replays",
                "checkpoint_writes",
                "journal_records",
                "recoveries",
            ):
                assert key in snap, key


class TestMutationJournalUnit:
    def test_append_replay_reset(self, tmp_path):
        path = str(tmp_path / "j.log")
        j = MutationJournal(path)
        j.append(1, [Mutation("insert", "E", ("a",), 1.0)])
        j.append(2, [Mutation("delete", "E", ("a",), None)])
        assert [seq for seq, _ in j.replay()] == [1, 2]
        j.reset()
        assert j.replay() == []
        j.close()
