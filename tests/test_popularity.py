"""Popularity-aware replication: tracker, policy, adaptation, manifest.

The pledges under test:

* :class:`DemandTracker` decays lazily but *exactly* — bringing a score
  forward over k idle rounds equals one-shot ``0.5 ** (k / half_life)``
  — and the vectorized ``record_batch`` feed folds to the same scores
  as scalar ``record`` calls;
* :class:`ReplicationPolicy` apportions a fixed total-copy budget by
  highest averages — floor one copy per object, hot objects first,
  ceilings respected, surplus spread to cold objects — and hysteresis
  commits a changed target only after it persists;
* the manager's ``adapt()`` pass converges copy placement toward the
  per-object targets at a bounded rate per round, within budget, and
  fsck understands the per-object invariant (including the in-flight
  dirty allowance);
* policy + tracker state round-trips bit-exactly through cluster
  manifest v3, and a policy-free manifest restores to a policy-free
  cluster;
* under random shard death / readmit churn, ``repair()`` is idempotent
  and every object's live copies sit on pairwise-distinct shards and
  failure domains (Hypothesis property).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterCoordinator,
    DemandTracker,
    ReplicationError,
    ReplicationPolicy,
    check_cluster,
    restore_cluster,
    snapshot_cluster,
)
from repro.storage.disk import DiskSpec

SPEC = DiskSpec(capacity_blocks=50_000, bandwidth_blocks_per_round=8)


def build_policy_cluster(
    num_shards: int = 4,
    num_objects: int = 8,
    blocks_per_object: int = 20,
    num_domains: int = 2,
    copy_budget: int | None = None,
    **policy_kwargs,
) -> ClusterCoordinator:
    """An R=1 cluster with a demand-driven policy attached."""
    policy = ReplicationPolicy(
        copy_budget if copy_budget is not None else num_objects + 4,
        **policy_kwargs,
    )
    coordinator = ClusterCoordinator.create(
        num_shards, 2, SPEC, bits=32, master_seed=0xBEEF,
        router_backend="consistent_hash",
        replication_factor=1,
        num_domains=num_domains,
        replication_policy=policy,
    )
    for i in range(num_objects):
        coordinator.add_object(f"title-{i}", blocks_per_object)
    return coordinator


class TestDemandTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            DemandTracker(half_life_rounds=0)

    def test_half_life_halves_idle_scores(self):
        tracker = DemandTracker(half_life_rounds=8)
        tracker.record(5, units=6)
        tracker.advance_to(8)
        assert tracker.demand(5) == pytest.approx(3.0)

    def test_lazy_decay_matches_one_shot(self):
        # Reading after 13 idle rounds must equal reading after 6 then
        # 7 — lazy decay is exact, not an approximation.
        lazy = DemandTracker(half_life_rounds=5)
        stepped = DemandTracker(half_life_rounds=5)
        for t in (lazy, stepped):
            t.record(1, units=4)
        stepped.advance_to(6)
        stepped.demand(1)  # forces a bring-forward at round 6
        stepped.advance_to(13)
        lazy.advance_to(13)
        assert lazy.demand(1) == pytest.approx(stepped.demand(1))
        assert lazy.demand(1) == pytest.approx(4 * 0.5 ** (13 / 5))

    def test_record_batch_matches_scalar(self):
        import numpy as np

        scalar = DemandTracker(half_life_rounds=4)
        batched = DemandTracker(half_life_rounds=4)
        reads = [3, 1, 3, 3, 2, 1]
        for gid in reads:
            scalar.record(gid)
        batched.record_batch(np.array(reads, dtype=np.int64))
        assert batched.total_units == scalar.total_units == len(reads)
        for gid in {1, 2, 3}:
            assert batched.demand(gid) == scalar.demand(gid)

    def test_record_batch_folds_before_the_clock_moves(self):
        import numpy as np

        tracker = DemandTracker(half_life_rounds=8)
        tracker.record_batch(np.array([7, 7], dtype=np.int64))
        tracker.advance_to(8)  # fold stamps at round 0, then decay
        assert tracker.demand(7) == pytest.approx(1.0)

    def test_rank_ties_break_by_gid(self):
        tracker = DemandTracker()
        tracker.record(4, units=2)
        tracker.record(9, units=2)
        tracker.record(1, units=5)
        assert tracker.rank([9, 4, 1, 2]) == [1, 4, 9, 2]

    def test_forget_and_compact(self):
        tracker = DemandTracker(half_life_rounds=1)
        tracker.record(0, units=1)
        tracker.record(1, units=1)
        tracker.forget(0)
        assert tracker.demand(0) == 0.0
        tracker.advance_to(60)  # 60 half-lives: decayed to noise
        assert tracker.compact() == 1
        assert len(tracker) == 0

    def test_payload_round_trip_is_bit_exact(self):
        import numpy as np

        tracker = DemandTracker(half_life_rounds=6)
        tracker.record(2, units=3)
        tracker.advance_to(4)
        tracker.record_batch(np.array([2, 5, 5], dtype=np.int64))
        payload = tracker.to_payload()
        clone = DemandTracker.from_payload(payload)
        assert clone.to_payload() == payload
        assert clone.demand(2) == tracker.demand(2)
        assert clone.total_units == tracker.total_units


class TestReplicationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(0)
        with pytest.raises(ValueError):
            ReplicationPolicy(4, floor=0)
        with pytest.raises(ValueError):
            ReplicationPolicy(4, floor=2, ceiling=1)
        with pytest.raises(ValueError):
            ReplicationPolicy(4, hysteresis_rounds=0)
        with pytest.raises(ValueError):
            ReplicationPolicy(4, max_copy_ops_per_round=0)
        with pytest.raises(ValueError):
            ReplicationPolicy(4, demand_half_life_rounds=0)

    def test_desired_respects_budget_floor_and_cap(self):
        policy = ReplicationPolicy(10)
        demands = {0: 100.0, 1: 10.0, 2: 1.0, 3: 0.0}
        targets = policy.desired(demands, max_copies=3)
        assert sum(targets.values()) <= 10
        assert all(1 <= t <= 3 for t in targets.values())
        assert targets[0] == 3  # the hot object is capped, not starved

    def test_extras_follow_demand(self):
        policy = ReplicationPolicy(6)
        targets = policy.desired({0: 9.0, 1: 1.0, 2: 0.0, 3: 0.0}, 4)
        # 4 floors + 2 extras: highest averages gives both to gid 0
        # (9/1 then 9/2 beat 1/1).
        assert targets == {0: 3, 1: 1, 2: 1, 3: 1}

    def test_surplus_spreads_to_cold_objects(self):
        policy = ReplicationPolicy(7)
        targets = policy.desired({0: 0.0, 1: 0.0, 2: 0.0}, 4)
        # No demand anywhere: extras spread by ascending gid instead of
        # sitting idle.
        assert sum(targets.values()) == 7
        assert targets[0] >= targets[1] >= targets[2]

    def test_ceiling_caps_targets(self):
        policy = ReplicationPolicy(12, ceiling=2)
        targets = policy.desired({0: 50.0, 1: 0.0, 2: 0.0}, 5)
        assert max(targets.values()) <= 2

    def test_hysteresis_delays_commit(self):
        policy = ReplicationPolicy(5, hysteresis_rounds=3)
        demands = {0: 8.0, 1: 0.0, 2: 0.0}
        assert policy.update(demands, 3, base_factor=1) == []
        assert policy.update(demands, 3, base_factor=1) == []
        assert policy.update(demands, 3, base_factor=1) == [0]
        assert policy.target_of(0, 1) == 3

    def test_flapping_demand_never_commits(self):
        policy = ReplicationPolicy(5, hysteresis_rounds=2)
        hot_a = {0: 9.0, 1: 0.0}
        hot_b = {0: 0.0, 1: 9.0}
        for _ in range(4):
            assert policy.update(hot_a, 3, base_factor=1) == []
            assert policy.update(hot_b, 3, base_factor=1) == []
        assert policy.targets == {}

    def test_update_drops_departed_objects(self):
        policy = ReplicationPolicy(6, hysteresis_rounds=1)
        policy.update({0: 5.0, 1: 0.0}, 3, base_factor=1)
        assert 0 in policy.targets
        policy.update({1: 0.0, 2: 0.0}, 3, base_factor=1)
        assert 0 not in policy.targets

    def test_payload_round_trip_is_bit_exact(self):
        policy = ReplicationPolicy(
            9, ceiling=3, hysteresis_rounds=2, max_copy_ops_per_round=2,
            demand_half_life_rounds=16,
        )
        policy.update({0: 7.0, 1: 1.0, 2: 0.0}, 3, base_factor=1)
        payload = policy.to_payload()
        clone = ReplicationPolicy.from_payload(payload)
        assert clone.to_payload() == payload
        assert clone.targets == policy.targets
        assert clone._streaks == policy._streaks


class TestClusterAdaptation:
    def test_no_policy_cluster_is_untouched(self):
        coordinator = ClusterCoordinator.create(
            2, 2, SPEC, bits=32, master_seed=0xBEEF,
            router_backend="consistent_hash",
        )
        coordinator.add_object("clip", 10)
        assert coordinator.replication.tracker is None
        coordinator.replication.record_demand(0, 100)  # no-op
        assert coordinator.replication.adapt() == {
            "created": 0, "dropped": 0, "retargeted": 0,
        }

    def test_adapt_rate_bound_per_round(self):
        coordinator = build_policy_cluster(
            num_shards=6, num_domains=3, copy_budget=24,
            hysteresis_rounds=1, max_copy_ops_per_round=2,
        )
        for gid in coordinator.object_ids:
            coordinator.replication.record_demand(gid, 50)
        for _ in range(12):
            before = (
                coordinator.replication.copies_created
                + coordinator.replication.copies_dropped
                + coordinator.replication.copies_lost
            )
            coordinator.run_round()
            after = (
                coordinator.replication.copies_created
                + coordinator.replication.copies_dropped
                + coordinator.replication.copies_lost
            )
            assert after - before <= 2

    def test_hot_object_converges_within_budget(self):
        coordinator = build_policy_cluster(
            num_shards=6, num_domains=3, num_objects=6, copy_budget=8,
            hysteresis_rounds=1,
        )
        hot = 0
        coordinator.replication.record_demand(hot, 500)
        for _ in range(10):
            coordinator.run_round()
        manager = coordinator.replication
        assert manager.target_of(hot) == 3  # live-domain ceiling
        assert len(manager.copies_of(hot)) == 3
        total = len(coordinator._home) + sum(
            len(sids) for sids in coordinator._replica_home.values()
        )
        assert total <= 8
        assert check_cluster(coordinator).clean

    def test_demand_shift_moves_copies(self):
        coordinator = build_policy_cluster(
            num_shards=6, num_domains=3, num_objects=6, copy_budget=8,
            hysteresis_rounds=1, demand_half_life_rounds=2,
        )
        manager = coordinator.replication
        manager.record_demand(0, 200)
        for _ in range(8):
            coordinator.run_round()
        assert manager.target_of(0) > 1
        # The crowd moves on: object 5 heats up while 0 goes cold.
        for _ in range(16):
            manager.record_demand(5, 200)
            coordinator.run_round()
        assert manager.target_of(5) > 1
        assert manager.target_of(0) == 1
        assert len(manager.copies_of(0)) == 1
        assert check_cluster(coordinator).clean

    def test_fsck_flags_unexplained_shortfall(self):
        coordinator = build_policy_cluster(
            num_shards=6, num_domains=3, num_objects=4, copy_budget=6,
            hysteresis_rounds=1,
        )
        manager = coordinator.replication
        manager.record_demand(0, 300)
        for _ in range(8):
            coordinator.run_round()
        assert manager.target_of(0) > 1
        victim = manager.replicas_of(0)[0]
        manager.drop_replica(0, victim)
        # The gap is not in the dirty queue and no shard died: breach.
        report = check_cluster(coordinator)
        assert not report.clean
        assert any(
            v.kind == "under-replicated" for v in report.replica_violations
        )
        # Queued for reconciliation, the same shortfall is only
        # degraded — adapt() will close it within the rate bound.
        manager._dirty.add(0)
        assert check_cluster(coordinator).clean

    def test_route_reads_feed_matches_route_read(self):
        batched = build_policy_cluster()
        scalar = build_policy_cluster()
        gids = list(batched.object_ids)
        batched.route_reads(gids)
        for gid in gids:
            scalar.route_read(gid)
        b, s = batched.replication.tracker, scalar.replication.tracker
        assert b.total_units == s.total_units
        assert all(b.demand(g) == s.demand(g) for g in gids)


class TestManifestV3:
    def test_policy_state_round_trips(self):
        coordinator = build_policy_cluster(hysteresis_rounds=1)
        coordinator.replication.record_demand(0, 120)
        coordinator.replication.record_demand(3, 40)
        for _ in range(6):
            coordinator.run_round()
        manifest = snapshot_cluster(coordinator)
        assert manifest["version"] == 3
        restored = restore_cluster(manifest)
        assert restored.round_index == coordinator.round_index
        assert (
            restored.replication.policy_payload()
            == coordinator.replication.policy_payload()
        )
        assert restored._replica_home == coordinator._replica_home
        # The restored tracker keeps decaying from the same clock.
        restored.run_round()
        coordinator.run_round()
        assert (
            restored.replication.policy_payload()
            == coordinator.replication.policy_payload()
        )

    def test_policy_free_manifest_restores_policy_free(self):
        coordinator = ClusterCoordinator.create(
            2, 2, SPEC, bits=32, master_seed=0xBEEF,
            router_backend="consistent_hash",
        )
        coordinator.add_object("clip", 10)
        manifest = snapshot_cluster(coordinator)
        assert manifest["popularity"] is None
        restored = restore_cluster(manifest)
        assert restored.replication.policy is None
        assert restored.replication.tracker is None


class TestRepairProperties:
    """Repair is idempotent and placement invariants hold under churn."""

    @staticmethod
    def churn_cluster() -> ClusterCoordinator:
        coordinator = ClusterCoordinator.create(
            4, 2, SPEC, bits=32, master_seed=0xBEEF,
            router_backend="consistent_hash",
            replication_factor=2,
            num_domains=2,
            replication_policy=ReplicationPolicy(
                14, hysteresis_rounds=1, max_copy_ops_per_round=8,
            ),
        )
        for i in range(6):
            coordinator.add_object(f"title-{i}", 10)
        return coordinator

    @staticmethod
    def repair_all(coordinator: ClusterCoordinator, gids) -> None:
        """Repair every object; one lost to shard deaths is a typed
        error naming it, not a bare ``KeyError``."""
        for gid in gids:
            if gid in coordinator.object_ids:
                coordinator.replication.repair(gid)
            else:
                with pytest.raises(ReplicationError, match=f"object {gid} "):
                    coordinator.replication.repair(gid)

    def test_repair_of_lost_object_raises_typed_error(self):
        # readmit, kill 3, kill 2, readmit: object 5 is declared lost.
        coordinator = self.churn_cluster()
        gids = sorted(coordinator.object_ids)
        coordinator.readmit_shard()
        for victim in (3, 2):
            coordinator.kill_shard(victim)
            self.repair_all(coordinator, gids)
        coordinator.readmit_shard()
        assert 5 not in coordinator.object_ids
        self.repair_all(coordinator, gids)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_repair_idempotent_under_death_and_readmit(self, data):
        coordinator = self.churn_cluster()
        gids = sorted(coordinator.object_ids)
        manager = coordinator.replication

        for _ in range(data.draw(st.integers(2, 7), label="steps")):
            live = [
                sid for sid in coordinator.shard_ids
                if coordinator.health.is_live(sid)
            ]
            choices = ["demand", "round"]
            if len(live) > 3:
                choices.append("kill")
            if len(live) < 6:
                choices.append("readmit")
            action = data.draw(st.sampled_from(choices), label="action")
            if action == "demand":
                gid = data.draw(st.sampled_from(gids), label="gid")
                manager.record_demand(
                    gid, data.draw(st.integers(1, 60), label="units")
                )
            elif action == "round":
                coordinator.run_round()
            elif action == "kill":
                victim = data.draw(st.sampled_from(live), label="victim")
                coordinator.kill_shard(victim)
                self.repair_all(coordinator, gids)
            else:
                coordinator.readmit_shard()

        for gid in gids:
            if gid not in coordinator.object_ids:
                self.repair_all(coordinator, [gid])
                continue
            manager.repair(gid)
            copies_after_first = manager.copies_of(gid)
            assert manager.repair(gid) == 0  # idempotent
            assert manager.copies_of(gid) == copies_after_first
            live_copies = manager.live_copies_of(gid)
            assert len(set(live_copies)) == len(live_copies)
            domains = [coordinator.shard(s).domain for s in live_copies]
            assert len(set(domains)) == len(domains)
            assert len(live_copies) <= max(
                1, min(manager.target_of(gid), manager.live_domain_count())
            )
        assert check_cluster(coordinator).clean
