"""Crash consistency: the scaling journal and snapshot+journal resume.

The acceptance property: for a scaling operation with M moves, killing
the server after *every* k in {0..M} journaled moves and resuming from
snapshot + journal must produce a final layout bit-identical to an
uninterrupted run, with a clean fsck.
"""

from __future__ import annotations

import json

import pytest

from repro.core.operations import ScalingOp
from repro.server.cmserver import CMServer
from repro.server.fsck import check_layout
from repro.server.journal import (
    JournalCorruptionError,
    JournalError,
    LogicalMove,
    ScalingJournal,
)
from repro.server.persistence import (
    restore_server,
    resume_server,
    server_to_json,
    snapshot_server,
)
from repro.storage.block import BlockId
from repro.storage.disk import DiskSpec
from repro.storage.migration import MigrationSession
from repro.workloads.generator import uniform_catalog


def make_server(journal=None, num_objects=4, blocks=100):
    catalog = uniform_catalog(num_objects, blocks, master_seed=0x7041, bits=32)
    spec = DiskSpec(capacity_blocks=100_000, bandwidth_blocks_per_round=8)
    return CMServer(
        catalog, [spec] * 4, bits=32, default_spec=spec, journal=journal
    )


def logical_layout(server):
    """Logical disk of every block (physical ids differ across restores)."""
    layout = {}
    for media in server.catalog:
        for index in range(media.num_blocks):
            pid = server.block_location(media.object_id, index)
            layout[(media.object_id, index)] = server.array.logical_of(pid)
    return layout


class TestJournalRecords:
    def test_empty_journal_replays_empty(self):
        assert ScalingJournal().replay() == []

    def test_begin_apply_commit_roundtrip(self):
        journal = ScalingJournal()
        move = LogicalMove(BlockId(0, 1), 0, 4)
        journal.record_begin(1, ScalingOp.add(1), 4, 5, [move])
        journal.record_apply(1, BlockId(0, 1))
        journal.record_commit(1)
        (record,) = journal.replay()
        assert record.seq == 1
        assert record.op == ScalingOp.add(1)
        assert record.plan == (move,)
        assert record.applied == [BlockId(0, 1)]
        assert record.committed and not record.aborted and not record.open

    def test_open_record_detected(self):
        journal = ScalingJournal()
        journal.record_begin(1, ScalingOp.add(1), 4, 5,
                             [LogicalMove(BlockId(0, 0), 1, 4)])
        journal.record_apply(1, BlockId(0, 0))
        open_record = journal.open_record()
        assert open_record is not None
        assert open_record.remaining == 0
        journal.record_commit(1)
        assert journal.open_record() is None

    def test_overlapping_begin_rejected(self):
        journal = ScalingJournal()
        journal.record_begin(1, ScalingOp.add(1), 4, 5, [])
        with pytest.raises(JournalError):
            journal.record_begin(2, ScalingOp.add(1), 5, 6, [])

    def test_apply_before_begin_rejected(self):
        journal = ScalingJournal()
        journal._append({"type": "apply", "seq": 1, "block": [0, 0]})
        with pytest.raises(JournalError):
            journal.replay()

    def test_file_journal_roundtrip(self, tmp_path):
        path = tmp_path / "scaling.journal"
        with ScalingJournal(path, fsync=True) as journal:
            journal.record_begin(1, ScalingOp.remove([2]), 5, 4,
                                 [LogicalMove(BlockId(1, 7), 2, 0)])
            journal.record_apply(1, BlockId(1, 7))
            journal.sync()
        # A fresh process reads the same records back.
        (record,) = ScalingJournal(path).replay()
        assert record.op == ScalingOp.remove([2])
        assert record.applied == [BlockId(1, 7)]
        assert record.open

    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "scaling.journal"
        journal = ScalingJournal(path)
        journal.record_begin(1, ScalingOp.add(1), 4, 5, [])
        journal.record_commit(1)
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "begin", "seq": 2, "op"')  # crash mid-append
        (record,) = ScalingJournal(path).replay()
        assert record.committed

    def test_corruption_elsewhere_raises(self, tmp_path):
        path = tmp_path / "scaling.journal"
        path.write_text('not json\n{"type": "commit", "seq": 1}\n')
        with pytest.raises(JournalError):
            ScalingJournal(path).replay()

    def test_stray_commit_rejected_and_not_written(self, tmp_path):
        journal = ScalingJournal()
        with pytest.raises(JournalError):
            journal.record_commit(5)
        assert journal.replay() == []
        path = tmp_path / "scaling.journal"
        with ScalingJournal(path) as on_disk:
            on_disk.record_begin(1, ScalingOp.add(1), 4, 5, [])
            with pytest.raises(JournalError):
                on_disk.record_apply(2, BlockId(0, 0))
            on_disk.record_commit(1)
            with pytest.raises(JournalError):
                on_disk.record_abort(1)
        (record,) = ScalingJournal(path).replay()
        assert record.committed and record.applied == []

    def test_reopened_file_knows_its_open_operation(self, tmp_path):
        path = tmp_path / "scaling.journal"
        with ScalingJournal(path) as journal:
            journal.record_begin(1, ScalingOp.add(1), 4, 5, [])
        with ScalingJournal(path) as journal:
            with pytest.raises(JournalError):
                journal.record_begin(2, ScalingOp.add(1), 5, 6, [])
            journal.record_commit(1)
            journal.record_begin(2, ScalingOp.add(1), 5, 6, [])
        assert [r.committed for r in ScalingJournal(path).replay()] == [
            True, False,
        ]

    def test_damaged_interior_begin_names_its_line(self, tmp_path):
        path = tmp_path / "scaling.journal"
        path.write_text(
            '{"type":"begin","seq":1}\n{"type":"commit","seq":1}\n'
        )
        with pytest.raises(JournalCorruptionError) as excinfo:
            ScalingJournal(path).replay()
        assert excinfo.value.lineno == 1


class TestJournaledScaling:
    def test_offline_scale_writes_full_protocol(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        report = server.scale(ScalingOp.add(1))
        (record,) = journal.replay()
        assert record.committed
        assert len(record.plan) == report.blocks_moved
        assert len(record.applied) == report.blocks_moved

    def test_begin_records_logical_endpoints(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        pending = server.begin_scale(ScalingOp.add(1))
        (record,) = journal.replay()
        n_after = server.num_disks
        for move in record.plan:
            assert 0 <= move.source_logical < n_after
            assert 0 <= move.target_logical < n_after
            assert move.source_logical != move.target_logical
        # Clean up the open operation.
        session = MigrationSession(
            server.array, pending.plan, journal=journal, op_seq=pending.op_seq
        )
        while not session.done:
            session.step(10_000)
        server.finish_scale(pending)

    def test_abort_rolls_back_to_pre_begin_state(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        before_layout = logical_layout(server)
        before_disks = server.num_disks
        before_ops = server.mapper.num_operations

        pending = server.begin_scale(ScalingOp.add(2))
        session = MigrationSession(
            server.array, pending.plan, journal=journal, op_seq=pending.op_seq
        )
        session.step(10_000, max_moves=7)  # partway in, then abort
        rolled_back = server.abort_scale(pending, session)

        assert rolled_back == 7
        assert server.num_disks == before_disks
        assert server.mapper.num_operations == before_ops
        assert logical_layout(server) == before_layout
        assert check_layout(server).clean
        (record,) = journal.replay()
        assert record.aborted
        # The journal accepts a fresh operation after the abort.
        server.scale(ScalingOp.add(1))
        assert journal.replay()[-1].committed

    def test_abort_of_removal_keeps_disks(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        pending = server.begin_scale(ScalingOp.remove([1]))
        server.abort_scale(pending)
        assert server.num_disks == 4
        assert check_layout(server).clean

    def test_abort_refuses_finished_operation(self):
        server = make_server(journal=ScalingJournal())
        pending = server.begin_scale(ScalingOp.add(1))
        session = MigrationSession(
            server.array, pending.plan,
            journal=server.journal, op_seq=pending.op_seq,
        )
        while not session.done:
            session.step(10_000)
        server.finish_scale(pending)
        with pytest.raises(ValueError):
            server.abort_scale(pending, session)


class TestResume:
    def test_quiescent_journal_resumes_to_plain_restore(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        snapshot = snapshot_server(server)
        server.scale(ScalingOp.add(1))
        server.scale(ScalingOp.remove([0]))

        resumed, pending, session = resume_server(snapshot, journal)
        assert pending is None and session is None
        assert logical_layout(resumed) == logical_layout(server)
        assert check_layout(resumed).clean
        assert resumed.journal is journal

    def test_aborted_operation_skipped_on_resume(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        snapshot = snapshot_server(server)
        pending = server.begin_scale(ScalingOp.add(1))
        session = MigrationSession(
            server.array, pending.plan, journal=journal, op_seq=pending.op_seq
        )
        session.step(10_000, max_moves=3)
        server.abort_scale(pending, session)
        server.scale(ScalingOp.add(2))

        resumed, open_pending, open_session = resume_server(snapshot, journal)
        assert open_pending is None and open_session is None
        assert logical_layout(resumed) == logical_layout(server)

    def test_kill_at_every_move_index(self):
        """The tentpole acceptance property, k in {0..M}."""
        # Uninterrupted reference run.
        reference = make_server(num_objects=3, blocks=60)
        op = ScalingOp.add(1)
        reference.scale(op)
        want = logical_layout(reference)

        probe = make_server(journal=ScalingJournal(), num_objects=3, blocks=60)
        snapshot = json.loads(server_to_json(probe))
        total_moves = len(probe.begin_scale(op).plan)
        assert total_moves > 0

        for k in range(total_moves + 1):
            journal = ScalingJournal()
            server = resume_server(snapshot, ScalingJournal())[0]
            server.attach_journal(journal)
            pending = server.begin_scale(op)
            session = MigrationSession(
                server.array, pending.plan,
                journal=journal, op_seq=pending.op_seq,
            )
            moved = len(session.step(10_000_000, max_moves=k))
            assert moved == k
            del server, pending, session  # the crash

            resumed, open_pending, open_session = resume_server(
                snapshot, journal
            )
            assert open_pending is not None
            assert open_session.remaining == total_moves - k
            while not open_session.done:
                open_session.step(10_000_000)
            resumed.finish_scale(open_pending)

            assert logical_layout(resumed) == want, f"diverged at k={k}"
            assert check_layout(resumed).clean, f"fsck dirty at k={k}"

    def test_kill_during_removal_resumes(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        server.scale(ScalingOp.add(2))
        snapshot = snapshot_server(server)

        reference = resume_server(snapshot, ScalingJournal())[0]
        reference.scale(ScalingOp.remove([1, 3]))
        want = logical_layout(reference)

        pending = server.begin_scale(ScalingOp.remove([1, 3]))
        session = MigrationSession(
            server.array, pending.plan, journal=journal, op_seq=pending.op_seq
        )
        session.step(10_000, max_moves=len(pending.plan) // 2)

        resumed, open_pending, open_session = resume_server(snapshot, journal)
        while not open_session.done:
            open_session.step(10_000)
        resumed.finish_scale(open_pending)
        assert logical_layout(resumed) == want
        assert check_layout(resumed).clean

    def test_resume_is_crash_idempotent(self):
        """Crashing during resume and resuming again still converges."""
        journal = ScalingJournal()
        server = make_server(journal=journal)
        snapshot = snapshot_server(server)
        pending = server.begin_scale(ScalingOp.add(1))
        session = MigrationSession(
            server.array, pending.plan, journal=journal, op_seq=pending.op_seq
        )
        session.step(10_000, max_moves=5)

        # First resume executes a few more journaled moves, then "crashes".
        _, pending1, session1 = resume_server(snapshot, journal)
        session1.step(10_000, max_moves=3)

        resumed, pending2, session2 = resume_server(snapshot, journal)
        assert session2.remaining == len(pending.plan) - 8
        while not session2.done:
            session2.step(10_000)
        resumed.finish_scale(pending2)
        assert check_layout(resumed).clean

    def test_fsck_reports_in_flight_mid_migration(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        pending = server.begin_scale(ScalingOp.add(1))
        session = MigrationSession(
            server.array, pending.plan, journal=journal, op_seq=pending.op_seq
        )
        session.step(10_000, max_moves=4)

        naive = check_layout(server)
        assert not naive.clean  # not-yet-moved blocks look misplaced
        aware = check_layout(server, pending=session.pending_moves)
        assert aware.clean
        assert len(aware.in_flight) == len(naive.misplaced)
        # Passing the whole PendingScale works identically for additions.
        assert check_layout(server, pending=pending).clean

    def test_fsck_mid_removal_uses_survivor_table(self):
        # Mid-removal the mapper indexes the survivors while the doomed
        # disk is still attached; the audit must translate expected
        # homes through the survivor table, not the raw logical order.
        journal = ScalingJournal()
        server = make_server(journal=journal)
        server.scale(ScalingOp.add(1))
        pending = server.begin_scale(ScalingOp.remove([2]))
        session = MigrationSession(
            server.array, pending.plan, journal=journal, op_seq=pending.op_seq
        )
        session.step(10_000, max_moves=len(pending.plan) // 2)

        aware = check_layout(server, pending=pending)
        assert aware.clean
        assert len(aware.in_flight) == session.remaining

        while not session.done:
            session.step(10_000)
        server.finish_scale(pending)
        assert check_layout(server).clean

    def test_mismatched_journal_rejected(self):
        journal = ScalingJournal()
        server = make_server(journal=journal)
        snapshot = snapshot_server(server)
        server.scale(ScalingOp.add(1))
        # Tamper: pretend the journaled op was a removal.
        journal._records[0]["op"] = {"kind": "remove", "removed": [0]}
        with pytest.raises(JournalError):
            resume_server(snapshot, journal)


class TestSnapshotV2:
    def test_v1_snapshot_still_read(self):
        server = make_server()
        server.scale(ScalingOp.add(1))
        snap = snapshot_server(server)
        snap["version"] = 1
        del snap["snapshot_ops"], snap["journal_path"]
        restored = restore_server(snap)
        assert logical_layout(restored) == logical_layout(server)

    def test_disk_count_mismatch_rejected(self):
        snap = snapshot_server(make_server())
        snap["disks"] = snap["disks"][:-1]
        with pytest.raises(ValueError, match="4 disks.*3 disk"):
            restore_server(snap)

    def test_op_stamp_mismatch_rejected(self):
        server = make_server()
        server.scale(ScalingOp.add(1))
        snap = snapshot_server(server)
        snap["snapshot_ops"] = 7
        with pytest.raises(ValueError, match="stamped with 7"):
            restore_server(snap)

    def test_journal_path_recorded(self, tmp_path):
        path = tmp_path / "scaling.journal"
        journal = ScalingJournal(path)
        server = make_server(journal=journal)
        assert snapshot_server(server)["journal_path"] == str(path)
        assert snapshot_server(make_server())["journal_path"] is None
