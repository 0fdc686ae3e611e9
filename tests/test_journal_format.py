"""The journals' on-disk format is pinned byte for byte.

Both journal layers share one JSON-lines framing.  A fixed sequence of
operations written through each must produce exactly the bytes below
(recorded from the implementation before the framing was shared), and
those files must replay to the same records — so journals written by
earlier versions still resume.
"""

from __future__ import annotations

from repro.cluster.journal import ClusterJournal, ObjectMove
from repro.core.operations import ScalingOp
from repro.server.journal import LogicalMove, ReshuffleOp, ScalingJournal
from repro.storage.block import BlockId

SCALING_GOLDEN = (
    '{"type":"begin","seq":1,"op":{"kind":"add","count":2},"n_before":4,'
    '"n_after":6,"plan":[[0,3,1,4],[2,0,0,5]]}\n'
    '{"type":"apply","seq":1,"block":[0,3]}\n'
    '{"type":"apply","seq":1,"block":[2,0]}\n'
    '{"type":"commit","seq":1}\n'
    '{"type":"begin","seq":2,"op":{"kind":"remove","removed":[1]},'
    '"n_before":6,"n_after":5,"plan":[[1,1,1,3]]}\n'
    '{"type":"abort","seq":2}\n'
    '{"type":"begin","seq":1,"op":{"kind":"reshuffle","epoch":1},'
    '"n_before":6,"n_after":6,"plan":[[0,0,2,0]]}\n'
    '{"type":"apply","seq":1,"block":[0,0]}\n'
)

CLUSTER_GOLDEN = (
    '{"type":"begin","seq":1,"op":{"kind":"add","count":1},'
    '"shards_before":2,"shards_after":3,"new_shard_ids":[2],'
    '"plan":[[5,0,2],[7,1,2]]}\n'
    '{"type":"apply","seq":1,"object":5}\n'
    '{"type":"apply","seq":1,"object":7}\n'
    '{"type":"commit","seq":1}\n'
    '{"type":"begin","seq":2,"op":{"kind":"remove","removed":[0]},'
    '"shards_before":3,"shards_after":2,"new_shard_ids":[],'
    '"plan":[[3,0,1]],"rebuild_of":0}\n'
    '{"type":"abort","seq":2}\n'
    '{"type":"begin","seq":3,"op":{"kind":"remove","removed":[1]},'
    '"shards_before":3,"shards_after":2,"new_shard_ids":[],'
    '"plan":[[4,1,2]]}\n'
    '{"type":"apply","seq":3,"object":4}\n'
)


def write_scaling(journal: ScalingJournal) -> None:
    journal.record_begin(
        1, ScalingOp.add(2), 4, 6,
        [LogicalMove(BlockId(0, 3), 1, 4), LogicalMove(BlockId(2, 0), 0, 5)],
    )
    journal.record_apply(1, BlockId(0, 3))
    journal.record_apply(1, BlockId(2, 0))
    journal.record_commit(1)
    journal.record_begin(
        2, ScalingOp.remove([1]), 6, 5, [LogicalMove(BlockId(1, 1), 1, 3)]
    )
    journal.record_abort(2)
    journal.record_begin(
        1, ReshuffleOp(1), 6, 6, [LogicalMove(BlockId(0, 0), 2, 0)]
    )
    journal.record_apply(1, BlockId(0, 0))


def write_cluster(journal: ClusterJournal) -> None:
    journal.record_begin(
        1, ScalingOp.add(1), 2, 3, (2,),
        [ObjectMove(5, 0, 2), ObjectMove(7, 1, 2)],
    )
    journal.record_apply(1, 5)
    journal.record_apply(1, 7)
    journal.record_commit(1)
    journal.record_begin(
        2, ScalingOp.remove([0]), 3, 2, (), [ObjectMove(3, 0, 1)],
        rebuild_of=0,
    )
    journal.record_abort(2)
    journal.record_begin(
        3, ScalingOp.remove([1]), 3, 2, (), [ObjectMove(4, 1, 2)]
    )
    journal.record_apply(3, 4)


class TestScalingJournalFormat:
    def test_bytes_match_golden(self, tmp_path):
        path = tmp_path / "s.journal"
        with ScalingJournal(path) as journal:
            write_scaling(journal)
        assert path.read_text(encoding="utf-8") == SCALING_GOLDEN

    def test_golden_file_replays(self, tmp_path):
        path = tmp_path / "s.journal"
        path.write_text(SCALING_GOLDEN, encoding="utf-8")
        memory = ScalingJournal()
        write_scaling(memory)
        records = ScalingJournal(path).replay()
        assert records == memory.replay()
        assert [(r.seq, r.committed, r.aborted) for r in records] == [
            (1, True, False), (2, False, True), (1, False, False),
        ]
        assert records[0].applied == [BlockId(0, 3), BlockId(2, 0)]
        assert records[2].is_reshuffle and records[2].remaining == 0


class TestClusterJournalFormat:
    def test_bytes_match_golden(self, tmp_path):
        path = tmp_path / "c.journal"
        with ClusterJournal(path) as journal:
            write_cluster(journal)
        assert path.read_text(encoding="utf-8") == CLUSTER_GOLDEN

    def test_golden_file_replays(self, tmp_path):
        path = tmp_path / "c.journal"
        path.write_text(CLUSTER_GOLDEN, encoding="utf-8")
        memory = ClusterJournal()
        write_cluster(memory)
        records = ClusterJournal(path).replay()
        assert records == memory.replay()
        assert [(r.seq, r.committed, r.aborted) for r in records] == [
            (1, True, False), (2, False, True), (3, False, False),
        ]
        assert records[0].applied == [5, 7]
        assert records[1].rebuild_of == 0 and records[2].rebuild_of is None
        assert ClusterJournal(path).open_record() == records[2]
