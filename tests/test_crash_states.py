"""Every crash state of the durable service's histories recovers.

The crash model, the enumerator and the rule live in ``crash_model.py``:
a recorded history's persistence calls are replayed prefix by prefix,
every state a crash may leave (unsynced bytes lost or torn, pending
directory changes in any subset) is reopened through
``DurableInstance``, and each must land on the fixpoint of exactly the
acknowledged batches, or of those plus the batch in flight.

The histories cover an incremental TROP SSSP and APSP (inserts, deletes,
a re-weigh) with a checkpoint every two batches, a THREE closure (the
re-solve path), a crash-recovered life that goes on mutating, an
aborted batch (the abort's truncate), and the history of
``benchmarks/bench_e26_serve.py::test_e26_crash_recovery`` at full size
(40-node SSSP, 25 batches, a checkpoint every 8).  Planted bugs show
the checker is not vacuous.
"""

from __future__ import annotations

import os

import pytest

from crash_model import REOPEN, History, Recorder, check, crash_states, record
from repro import core, programs, workloads
from repro.core import journal
from repro.core.incremental import Mutation
from repro.core.journal import JOURNAL_NAME, MutationJournal
from repro.semirings import THREE, TROP

TROP_BATCHES = [
    [Mutation("insert", "E", ("a", "x"), 1.0)],
    [Mutation("insert", "E", ("x", "d"), 1.0),
     Mutation("insert", "E", ("x", "b"), 0.5)],
    [Mutation("delete", "E", ("a", "b"), None)],
    [Mutation("insert", "E", ("c", "d"), 0.5)],  # re-weigh 4.0 → 0.5
    [Mutation("delete", "E", ("x", "d"), None),
     Mutation("insert", "E", ("b", "d"), 2.0)],
]
TROP_PROBE = [Mutation("insert", "E", ("d", "y"), 1.0)]


def _trop(name, program, steps) -> History:
    db = core.Database(
        pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
    )
    return History(name, program, TROP, db, steps, TROP_PROBE)


def sssp() -> History:
    return _trop("sssp", programs.sssp("a"), TROP_BATCHES)


def apsp() -> History:
    return _trop("apsp", programs.apsp(), TROP_BATCHES)


def three() -> History:
    db = core.Database(
        pops=THREE,
        relations={"E": {("a", "b"): True, ("b", "c"): False}},
    )
    steps = [
        [Mutation("insert", "E", ("c", "a"), True)],
        [Mutation("delete", "E", ("b", "c"), None)],
        [Mutation("insert", "E", ("b", "b"), False)],
    ]
    return History(
        "three", programs.transitive_closure(), THREE, db, steps,
        [Mutation("insert", "E", ("c", "y"), True)], method="naive",
    )


def reopened() -> History:
    # Record 3 is journal-only when the instance is abandoned: the
    # crashes after it hit a recovered life.
    steps = TROP_BATCHES[:3] + [REOPEN] + TROP_BATCHES[3:]
    return _trop("reopen", programs.sssp("a"), steps)


def aborted() -> History:
    steps = [TROP_BATCHES[0], ("fail", TROP_BATCHES[1])] + TROP_BATCHES[1:3]
    return _trop("abort", programs.sssp("a"), steps)


def e26() -> History:
    edges = workloads.random_weighted_digraph(40, 0.12, seed=11)
    db = core.Database(pops=TROP, relations={"E": dict(edges)})
    nodes = sorted({u for (u, _v) in edges})
    steps = [
        [Mutation(
            "insert", "E",
            (nodes[i % len(nodes)], nodes[(i * 3 + 1) % len(nodes)]),
            1.0 + i * 0.1,
        )]
        for i in range(24)
    ]
    steps.append([Mutation("insert", "E", (nodes[0], nodes[-1]), 0.1)])
    return History(
        "e26", programs.sssp(nodes[0]), TROP, db, steps,
        [Mutation("insert", "E", (nodes[1], "fresh"), 0.5)],
        checkpoint_every=8,
    )


HISTORIES = {
    h.__name__: h for h in (sssp, apsp, three, reopened, aborted, e26)
}


def _check(history, tmp_path, recorder=None):
    recording = record(history, str(tmp_path / "live"), recorder)
    return recording, check(recording, str(tmp_path / "crashed"))


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_every_crash_state_recovers(name, tmp_path):
    _recording, report = _check(HISTORIES[name](), tmp_path)
    assert not report.violations, "\n".join(
        str(v) for v in report.violations[:10]
    )
    # Torn tails were reached (and each warned), and so were new
    # checkpoints over stale journals (and each skipped its records).
    assert report.torn and report.stale


def test_journal_log_survives_every_crash_after_the_first_ack(tmp_path):
    recording = record(sssp(), str(tmp_path))
    first_ack = next(at for at, kind, _b in recording.events if kind == "ack")
    missing = [
        (point, cut)
        for point, cut, state in crash_states(recording.ops)
        if point >= first_ack and JOURNAL_NAME not in dict(state)
    ]
    assert not missing


def test_recovered_life_and_abort_are_crashed_into(tmp_path):
    recording = record(reopened(), str(tmp_path / "reopen"))
    # The second life appends (and checkpoints) after its recovery.
    assert sum(op[0] == "replace" for op in recording.ops) == 3
    recording = record(aborted(), str(tmp_path / "abort"))
    aborts = [at for at, kind, _b in recording.events if kind == "abort"]
    assert len(aborts) == 1
    truncate = recording.ops[aborts[0] - 2]
    assert truncate[:2] == ("truncate", JOURNAL_NAME)


# ---------------------------------------------------------------------------
# Planted bugs: each must be reported, naming the op and the cut
# ---------------------------------------------------------------------------


def _assert_named(violations):
    assert violations
    for v in violations:
        text = str(v)
        assert text.startswith(f"crash after op {v.op_index} (")
        assert v.cut in text


class _RenameNotDurable(Recorder):
    """The directory fsync after the checkpoint rename is a no-op."""

    def fsync_dir(self, path):
        if self.ops[-1][0] != "replace":
            super().fsync_dir(path)


class _JournalCreationNotDurable(Recorder):
    """Creating ``journal.log`` is never followed by a directory fsync."""

    def fsync_dir(self, path):
        if self.ops[-1] != ("open", JOURNAL_NAME, "wb", False):
            super().fsync_dir(path)


def test_planted_rename_without_dir_fsync_is_caught(tmp_path):
    _recording, report = _check(sssp(), tmp_path, _RenameNotDurable())
    _assert_named(report.violations)
    assert any(
        v.problem.startswith("recovered seq") for v in report.violations
    )


def test_planted_reset_before_checkpoint_is_caught(tmp_path, monkeypatch):
    real = journal.write_checkpoint

    def reset_first(data_dir, payload):
        MutationJournal(os.path.join(data_dir, JOURNAL_NAME)).reset()
        real(data_dir, payload)

    with monkeypatch.context() as planted:
        planted.setattr(journal, "write_checkpoint", reset_first)
        recording = record(sssp(), str(tmp_path / "live"))
    report = check(recording, str(tmp_path / "crashed"))
    _assert_named(report.violations)


def test_planted_journal_creation_without_dir_fsync_is_caught(tmp_path):
    recording, report = _check(sssp(), tmp_path, _JournalCreationNotDurable())
    _assert_named(report.violations)
    first_ack = next(at for at, kind, _b in recording.events if kind == "ack")
    assert any(
        v.op_index >= first_ack
        and JOURNAL_NAME not in v.files
        and v.problem == "recovered seq 0"
        for v in report.violations
    )
