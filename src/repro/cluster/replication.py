"""Cross-shard replication: R copies, distinct shards, distinct domains.

The coordinator keeps every object's *primary* copy where the router
says it belongs (so minimal-move rebalance semantics are untouched);
this module owns the R-1 *replica* copies that make a shard death
survivable:

* **placement** — replicas go on the best-ranked live shards from
  :meth:`~repro.cluster.router.ShardRouter.replica_rank` (rendezvous
  hashing over stable ids, minimally disrupted by topology change),
  skipping the primary's shard and every already-used failure domain;
* **repair** — :meth:`ClusterReplicationManager.repair` re-establishes
  the invariants for one object after anything moved or died, keeping
  every still-legal copy in place (minimal movement) and creating only
  the missing ones;
* **rebuild** — :class:`ShardRebuilder` drives a dead shard's journaled
  evacuation at a bounded number of objects per round, the
  :class:`~repro.server.health.Scrubber` discipline one level up, so
  re-replication never starves stream service.

A replica copy is ordinary catalog traffic on its shard (ingested
through :class:`~repro.server.ingest.IngestSession`, exactly like a
migration), so per-shard journals, snapshots, and fsck all see it as a
first-class object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.health import ShardHealth
from repro.cluster.popularity import DemandTracker, ReplicationPolicy
from repro.server.ingest import IngestSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.coordinator import ClusterCoordinator, PendingReshard

__all__ = ["ClusterReplicationManager", "ReplicationError", "ShardRebuilder"]


class ReplicationError(Exception):
    """Replica placement could not satisfy its invariants."""


class ClusterReplicationManager:
    """Places and repairs the replica copies of every object.

    Owned by the coordinator; reads its namespace maps and health
    monitor directly.  All placement decisions are pure functions of
    (object id, live shard set, domains), so same-seed runs place
    replicas bit-identically.
    """

    def __init__(
        self,
        coordinator: "ClusterCoordinator",
        policy: Optional[ReplicationPolicy] = None,
    ):
        self.c = coordinator
        #: Replica copies created over the cluster's lifetime.
        self.copies_created = 0
        #: Replica copies *evicted* (deliberately removed from a live
        #: shard) over the cluster's lifetime.
        self.copies_dropped = 0
        #: Replica copies *lost* with their shard (dropped from the
        #: record because the shard holding them died) — split from
        #: ``copies_dropped`` so loss is never mistaken for eviction.
        self.copies_lost = 0
        #: Optional popularity policy; when attached, per-object targets
        #: override the uniform ``replication_factor``.
        self.policy = policy
        #: Demand signal driving the policy (``None`` without one, so
        #: the no-policy hot path records nothing).
        self.tracker: Optional[DemandTracker] = (
            DemandTracker(policy.demand_half_life_rounds)
            if policy is not None
            else None
        )
        #: Objects whose committed target changed and still need
        #: reconciliation (drained hot-first by :meth:`adapt`).
        self._dirty: set[int] = set()
        #: Patrol position for the background sweep in :meth:`adapt`.
        self._patrol_cursor = 0

    @property
    def factor(self) -> int:
        """Uniform total copies per object (primary included) — the
        default for any object without a committed per-object target."""
        return self.c.replication_factor

    def target_of(self, gid: int) -> int:
        """Total copies (primary included) this object should hold: its
        committed policy target, or the uniform factor without one."""
        if self.policy is None:
            return self.factor
        return self.policy.target_of(gid, self.factor)

    def live_domain_count(self) -> int:
        """Distinct failure domains with at least one live shard — the
        ceiling on useful copies per object."""
        return len(
            {
                shard.domain
                for shard in self.c.shards
                if self.c.health.is_live(shard.shard_id)
            }
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def replicas_of(self, gid: int) -> tuple[int, ...]:
        """Stable shard ids holding replica copies, in placement order."""
        return self.c._replica_home.get(gid, ())

    def copies_of(self, gid: int) -> tuple[int, ...]:
        """Every shard holding a copy: the primary first, then replicas."""
        return (self.c._home[gid],) + self.replicas_of(gid)

    def live_copies_of(self, gid: int) -> tuple[int, ...]:
        """Shards holding a *readable* copy (dead/rebuilding excluded),
        primary first when it is live."""
        return tuple(
            sid for sid in self.copies_of(gid) if self.c.health.is_live(sid)
        )

    def _domain(self, shard_id: int) -> str:
        return self.c._shard_by_id[shard_id].domain

    def _candidates(
        self, gid: int, used_shards: set[int], used_domains: set[str]
    ) -> list[int]:
        """Live slot-table shards that could take a new copy, ranked."""
        live = [
            shard.shard_id
            for shard in self.c.shards
            if self.c.health.is_live(shard.shard_id)
        ]
        ranked = self.c.router.replica_rank(gid, live)
        picks = []
        for sid in ranked:
            if sid in used_shards or self._domain(sid) in used_domains:
                continue
            picks.append(sid)
        return picks

    # ------------------------------------------------------------------
    # Placement / repair
    # ------------------------------------------------------------------
    def place(self, gid: int) -> tuple[int, ...]:
        """Create the initial replica set for a just-added object.

        Called by ``add_object`` right after the primary loaded.  Best
        effort: when fewer legal candidates exist than ``target - 1``
        (small cluster, shards down), the object is left degraded and
        ``repair`` closes the gap once capacity returns.
        """
        if self.target_of(gid) <= 1:
            return ()
        return self._fill(gid)

    def repair(self, gid: int) -> int:
        """Re-establish the replica invariants for one object.

        Keeps every copy that is still legal (live shard, no duplicate
        shard, no duplicate domain — first copy in placement order
        wins), drops the rest, then creates missing copies on the
        best-ranked legal candidates up to the object's *own* target
        (so a lowered target evicts from the tail of the placement
        order).  Returns copies created.  No-op while the primary
        itself is unreachable — the rebuild owns that case, and
        repairing around a dead primary would strand its eventual new
        home.  An object no longer in the namespace (lost or removed) is
        a :class:`ReplicationError`, not a bare ``KeyError``.
        """
        if gid not in self.c._home:
            raise ReplicationError(
                f"object {gid} is not in the cluster namespace (lost or "
                "removed); nothing to repair"
            )
        target = self.target_of(gid)
        if target <= 1 and gid not in self.c._replica_home:
            return 0
        home = self.c._home[gid]
        if not self.c.health.is_live(home):
            return 0
        used_shards = {home}
        used_domains = {self._domain(home)}
        for sid in self.replicas_of(gid):
            if (
                not self.c.health.is_live(sid)
                or sid in used_shards
                or self._domain(sid) in used_domains
            ):
                # A copy on a dead shard is *lost*, not evicted — its
                # blocks went down with the shard.
                self.drop_replica(
                    gid, sid, lost=not self.c.health.is_live(sid)
                )
                continue
            if len(used_shards) >= target:
                # Over-replicated (a rebuild abort demoted a primary,
                # or the policy lowered this object's target): trim
                # from the tail of the placement order.
                self.drop_replica(gid, sid)
                continue
            used_shards.add(sid)
            used_domains.add(self._domain(sid))
        created = self._fill(gid)
        return len(created)

    def _fill(self, gid: int) -> tuple[int, ...]:
        """Create copies until the object has its target total (or the
        candidate pool runs dry), returning the new replica shards."""
        home = self.c._home[gid]
        used_shards = {home} | set(self.replicas_of(gid))
        used_domains = {self._domain(sid) for sid in used_shards}
        created = []
        needed = self.target_of(gid) - len(used_shards)
        if needed > 0:
            for sid in self._candidates(gid, used_shards, used_domains):
                self._copy_to(gid, sid)
                created.append(sid)
                used_shards.add(sid)
                used_domains.add(self._domain(sid))
                needed -= 1
                if needed == 0:
                    break
        if needed > 0 and self.c.obs.enabled:
            self.c.obs.event(
                "cluster.replica.degraded", gid=gid, missing=needed
            )
        return tuple(created)

    def _copy_to(self, gid: int, target_id: int) -> None:
        """Ingest one replica copy onto a shard and record it."""
        media = self._live_media(gid)
        target = self.c._shard_by_id[target_id]
        session = IngestSession(
            target.server, media.name, media.num_blocks,
            blocks_per_round=media.blocks_per_round,
        )
        session.run(media.num_blocks)
        self.c._replica_home[gid] = self.replicas_of(gid) + (target_id,)
        self.c._replica_local[(gid, target_id)] = session.object_id
        self.copies_created += 1
        if self.c.obs.enabled:
            self.c.obs.event(
                "cluster.replica.place",
                gid=gid,
                shard=target_id,
                blocks=media.num_blocks,
            )
            self.c.obs.inc("cluster.replica.copies")

    def _live_media(self, gid: int):
        """Catalog entry of one live copy (source of truth for params)."""
        live = self.live_copies_of(gid)
        if not live:
            raise ReplicationError(
                f"object {gid} has no live copy to replicate from"
            )
        sid = live[0]
        return self.c._shard_by_id[sid].server.catalog.get(
            self.c._local_id_on(gid, sid)
        )

    def drop_replica(self, gid: int, shard_id: int, lost: bool = False) -> None:
        """Remove one replica copy from the record (and, when the shard
        is live and ``lost`` is False, from its catalog).

        Streams served from the dropped copy are re-homed through the
        failover router first, so eviction never kills a playback.
        Dropping a copy that was never recorded (e.g. a double drop) is
        a :class:`ReplicationError`, not a bare ``KeyError``.
        """
        try:
            local = self.c._replica_local.pop((gid, shard_id))
        except KeyError:
            raise ReplicationError(
                f"object {gid} has no replica recorded on shard "
                f"{shard_id} (double drop?)"
            ) from None
        self.c._replica_home[gid] = tuple(
            sid for sid in self.replicas_of(gid) if sid != shard_id
        )
        if not self.c._replica_home[gid]:
            del self.c._replica_home[gid]
        shard = self.c._shard_by_id.get(shard_id)
        if shard is not None and not lost and self.c.health.is_live(shard_id):
            rehomed = self.c._capture_streams(shard, local)
            shard.server.remove_object(local)
            self.c._readmit_streams(rehomed)
        if lost:
            self.copies_lost += 1
        else:
            self.copies_dropped += 1
        if self.c.obs.enabled:
            self.c.obs.event(
                "cluster.replica.drop", gid=gid, shard=shard_id, lost=lost
            )

    # ------------------------------------------------------------------
    # Popularity adaptation
    # ------------------------------------------------------------------
    def record_demand(self, gid: int, units: int = 1) -> None:
        """Feed observed demand into the tracker (no-op without a
        policy, so the uniform-R hot path stays untouched)."""
        if self.tracker is None:
            return
        self.tracker.record(gid, units)
        if self.c.obs.enabled:
            self.c.obs.inc("cluster.demand.units", units)

    def forget(self, gid: int) -> None:
        """Drop one object's demand and target state (object removed)."""
        if self.tracker is not None:
            self.tracker.forget(gid)
        if self.policy is not None:
            self.policy.forget(gid)
        self._dirty.discard(gid)

    def adapt(self) -> dict[str, int]:
        """One rate-bounded adaptation pass (call once per cluster
        round, after serving).

        Re-evaluates targets through the policy (hysteresis inside),
        then reconciles at most ``max_copy_ops_per_round`` actual copy
        creations + evictions: dirty objects first, hottest first, then
        a wrapping patrol cursor over the namespace so placement drift
        (e.g. a readmitted shard) is eventually repaired even when no
        target changed.  The Scrubber discipline one level up — adapt
        traffic never starves stream service.  Returns op counts.
        """
        if self.policy is None or self.tracker is None:
            return {"created": 0, "dropped": 0, "retargeted": 0}
        self.tracker.advance_to(self.c.round_index)
        gids = sorted(self.c._home)
        ceiling = self.live_domain_count()
        if not gids or ceiling < 1:
            return {"created": 0, "dropped": 0, "retargeted": 0}
        demands = self.tracker.demands(gids)
        changed = self.policy.update(demands, ceiling, self.factor)
        self._dirty.update(changed)
        self._dirty.intersection_update(self.c._home)

        before_created = self.copies_created
        before_evicted = self.copies_dropped
        before_lost = self.copies_lost
        budget = self.policy.max_copy_ops_per_round

        def ops_spent() -> int:
            return (
                (self.copies_created - before_created)
                + (self.copies_dropped - before_evicted)
                + (self.copies_lost - before_lost)
            )

        # Dirty objects, hottest first — the flash crowd's object gets
        # its copies before anything else moves.
        for gid in sorted(self._dirty, key=lambda g: (-demands[g], g)):
            if ops_spent() >= budget:
                break
            self.repair(gid)
            self._dirty.discard(gid)
        # Remaining budget patrols the namespace (bounded walk, cursor
        # wraps) to converge placement drift with no target change.
        patrolled = 0
        while ops_spent() < budget and patrolled < len(gids):
            gid = gids[self._patrol_cursor % len(gids)]
            self._patrol_cursor = (self._patrol_cursor + 1) % len(gids)
            patrolled += 1
            if gid not in self._dirty:
                self.repair(gid)
        report = {
            "created": self.copies_created - before_created,
            "dropped": (
                (self.copies_dropped - before_evicted)
                + (self.copies_lost - before_lost)
            ),
            "retargeted": len(changed),
        }
        if self.c.obs.enabled and (
            report["created"] or report["dropped"] or report["retargeted"]
        ):
            self.c.obs.event("cluster.replica.adapt", **report)
        return report

    # -- persistence identity ------------------------------------------
    def policy_payload(self) -> Optional[dict[str, Any]]:
        """Manifest (v3) state: policy config + targets + tracker, or
        ``None`` when no policy is attached."""
        if self.policy is None or self.tracker is None:
            return None
        return {
            "policy": self.policy.to_payload(),
            "tracker": self.tracker.to_payload(),
            "patrol_cursor": self._patrol_cursor,
            "dirty": sorted(self._dirty),
        }

    def restore_policy(self, payload: Optional[dict[str, Any]]) -> None:
        """Rebuild policy + tracker state from :meth:`policy_payload`."""
        if payload is None:
            self.policy = None
            self.tracker = None
            self._dirty = set()
            self._patrol_cursor = 0
            return
        self.policy = ReplicationPolicy.from_payload(payload["policy"])
        self.tracker = DemandTracker.from_payload(payload["tracker"])
        self._patrol_cursor = payload["patrol_cursor"]
        self._dirty = set(payload["dirty"])


class ShardRebuilder:
    """Rate-bounded driver for one dead shard's journaled evacuation.

    The Scrubber discipline one level up: :meth:`step` lands at most
    ``rate_per_round`` object migrations, so calling it once per serving
    round bounds how much rebuild traffic competes with streams.  The
    underlying rebalance is ordinary journaled work — a crash mid-rebuild
    resumes through :func:`~repro.cluster.persistence.resume_cluster`
    like any reshard, and :meth:`finish` commits it.
    """

    def __init__(
        self,
        coordinator: "ClusterCoordinator",
        pending: "PendingReshard",
        rate_per_round: int = 4,
    ):
        if rate_per_round < 1:
            raise ValueError(
                f"rate_per_round must be >= 1, got {rate_per_round}"
            )
        self.c = coordinator
        self.pending = pending
        self.rate_per_round = rate_per_round

    @property
    def shard_id(self) -> Optional[int]:
        """The dead shard being evacuated."""
        return self.pending.rebuild_of

    @property
    def progress(self) -> float:
        """Fraction of the planned evacuation that has landed."""
        total = len(self.pending.moves)
        if total == 0:
            return 1.0
        return len(self.pending.applied) / total

    @property
    def done(self) -> bool:
        """Whether every planned migration has landed."""
        return self.pending.done

    def step(self) -> int:
        """Land up to ``rate_per_round`` migrations; returns how many."""
        moved = 0
        while moved < self.rate_per_round:
            if self.c.migrate_next(self.pending) is None:
                break
            moved += 1
        if self.c.obs.enabled:
            self.c.obs.set_gauge(
                "cluster.rebuild.progress",
                self.progress,
                shard=str(self.shard_id),
            )
        return moved

    def run(self) -> int:
        """Drive the whole evacuation (offline path); returns moves."""
        total = 0
        while not self.done:
            total += self.step()
        return total

    def finish(self) -> None:
        """Commit the rebuild (verifies the dead shard fully drained)."""
        self.c.finish_reshard(self.pending)

    def __repr__(self) -> str:
        return (
            f"ShardRebuilder(shard={self.shard_id}, "
            f"progress={self.progress:.2f}, rate={self.rate_per_round})"
        )
