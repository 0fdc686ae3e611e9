"""The durable cluster journal: crash consistency for shard rebalances.

Same intent/apply/commit discipline as the per-shard scaling journal
(:mod:`repro.server.journal`), one level up: the unit of movement is an
*object* migrating between shards instead of a block migrating between
disks.

* ``begin`` — written by
  :meth:`~repro.cluster.coordinator.ClusterCoordinator.begin_reshard`
  once the router reflects the new shard topology and the filtered move
  plan is known: the operation, the shard counts, and the full move
  list (object ids + *stable shard id* endpoints — slot indices
  re-compact on removal and would be ambiguous after a crash);
* ``apply`` — one record per migrated object, written after the object
  fully landed on the target shard and was dropped from the source;
* ``commit`` / ``abort`` — terminal records.

The composition with the per-shard journals is strict layering: an
object migration is *catalog* traffic on both shards (ingest on the
target, removal on the source), never a per-shard scaling op, so a
shard's own :class:`~repro.server.journal.ScalingJournal` records only
its own disk-level operations.  Recovery replays the shard journals
first (each shard returns to its own crash-consistent state), then the
cluster journal on top (object moves re-executed against the restored
shards) — see :func:`repro.cluster.persistence.resume_cluster`.

Storage, replay and the write-time protocol checks are the scaling
journal's own framing (:class:`~repro.server.journal.JsonlJournal`):
JSON lines, in-memory when ``path=None``, flushed per record, optional
fsync, torn final line tolerated on replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.operations import ScalingOp
from repro.server.journal import (
    JournalCorruptionError,
    JournalError,
    JournalRecord,
    JsonlJournal,
)

__all__ = [
    "ClusterJournal",
    "ClusterJournalCorruptionError",
    "JournalError",
    "ObjectMove",
    "ReshardRecord",
]

#: The cluster-level name of
#: :class:`~repro.server.journal.JournalCorruptionError`.
ClusterJournalCorruptionError = JournalCorruptionError


@dataclass(frozen=True)
class ObjectMove:
    """One planned object migration, in stable-shard-id space."""

    object_id: int
    source_shard: int
    target_shard: int


@dataclass
class ReshardRecord(JournalRecord):
    """Everything the cluster journal knows about one rebalance.

    Attributes
    ----------
    seq:
        1-based position of the operation in the router's log.
    op:
        The shard-topology operation (over *slots*, like any scaling op).
    shards_before / shards_after:
        Shard counts around the operation.
    new_shard_ids:
        Stable ids assigned to shards the operation attaches.
    plan:
        The filtered move list recorded at ``begin`` time.
    applied:
        Object ids whose migrations were journaled as landed, in order.
    rebuild_of:
        Stable id of the dead shard this rebalance evacuates, or
        ``None`` for an ordinary reshard.  Recovery must re-mark that
        shard dead before re-deriving the plan, so the field rides in
        the begin record.
    """

    seq: int
    op: ScalingOp
    shards_before: int
    shards_after: int
    new_shard_ids: tuple[int, ...]
    plan: tuple[ObjectMove, ...]
    applied: list[int] = field(default_factory=list)
    committed: bool = False
    aborted: bool = False
    rebuild_of: Optional[int] = None


class ClusterJournal(JsonlJournal):
    """Append-only intent/apply/commit journal for shard rebalances.

    The :class:`~repro.server.journal.JsonlJournal` framing with
    :class:`ReshardRecord` records over :class:`ObjectMove` plans and
    ``cluster.journal.*`` obs metrics; see there for ``path`` and
    ``fsync``.
    """

    obs_prefix = "cluster.journal."

    def record_begin(
        self,
        seq: int,
        op: ScalingOp,
        shards_before: int,
        shards_after: int,
        new_shard_ids: Iterable[int],
        moves: Iterable[ObjectMove],
        rebuild_of: Optional[int] = None,
    ) -> None:
        """Journal the intent of one rebalance (filtered plan included).

        ``rebuild_of`` names the dead shard a rebuild evacuates (absent
        for ordinary reshards; older journals never carry it).

        Raises
        ------
        JournalError
            If another rebalance is still open.
        """
        record = {
            "type": "begin",
            "seq": seq,
            "op": op.to_dict(),
            "shards_before": shards_before,
            "shards_after": shards_after,
            "new_shard_ids": list(new_shard_ids),
            "plan": [
                [m.object_id, m.source_shard, m.target_shard]
                for m in moves
            ],
        }
        if rebuild_of is not None:
            record["rebuild_of"] = rebuild_of
        self._write(record)

    def record_apply(self, seq: int, object_id: int) -> None:
        """Journal one landed object migration."""
        self._write({"type": "apply", "seq": seq, "object": object_id})

    # Defined on the class itself so per-class method wrappers (e.g.
    # the perfbench tracer) see them.
    record_commit = JsonlJournal.record_commit
    record_abort = JsonlJournal.record_abort

    def _parse_begin(self, entry: dict) -> ReshardRecord:
        return ReshardRecord(
            seq=entry["seq"],
            op=ScalingOp.from_dict(entry["op"]),
            shards_before=entry["shards_before"],
            shards_after=entry["shards_after"],
            new_shard_ids=tuple(entry["new_shard_ids"]),
            plan=tuple(
                ObjectMove(gid, src, dst) for gid, src, dst in entry["plan"]
            ),
            rebuild_of=entry.get("rebuild_of"),
        )

    def _parse_apply(self, entry: dict) -> int:
        return entry["object"]
