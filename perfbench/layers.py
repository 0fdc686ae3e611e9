"""Which public functions are traced, and the per-layer metrics.

``install`` wraps each function at the name its caller resolves (see
:mod:`tracer`); ``PER_LAYER`` names every per-layer metric, its unit,
which direction is better and the end-to-end metric and workload it
should move.  Values are derived from the traced pass by ``derive``.
"""

from __future__ import annotations

import numpy as np

import repro.cluster.fsck
import repro.cluster.persistence
import repro.server.cmserver
import repro.server.scheduler
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.journal import ClusterJournal
from repro.cluster.popularity import DemandTracker, ReplicationPolicy
from repro.cluster.replication import ClusterReplicationManager, ShardRebuilder
from repro.cluster.router import ShardRouter
from repro.core.engine import PlacementEngine
from repro.server.cmserver import CMServer
from repro.server.ingest import IngestSession
from repro.server.journal import ScalingJournal
from repro.server.locate import BackendBatchLocator
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream
from repro.storage.array import DiskArray
from repro.storage.migration import MigrationSession

from tracer import Tracer


def _len_arg(index: int):
    return lambda args, result: len(args[index])


def _result_len(args, result) -> int:
    return len(result) if result is not None else 0


def _result_int(args, result) -> int:
    return int(result or 0)


#: (owner, attribute, layer, options) for every traced function.
TARGETS = [
    (ClusterCoordinator, "run_round", "cluster.coordinator", {}),
    (ClusterCoordinator, "admit_stream", "cluster.coordinator", {}),
    (ClusterCoordinator, "depart_stream", "cluster.coordinator", {}),
    (ClusterCoordinator, "route_reads", "cluster.coordinator", {"items": _len_arg(1)}),
    (ClusterCoordinator, "route_read", "cluster.coordinator", {}),
    (ClusterCoordinator, "add_object", "cluster.coordinator", {}),
    (ClusterCoordinator, "scale_shard", "cluster.coordinator", {}),
    (ClusterCoordinator, "reshuffle_shard", "cluster.coordinator", {}),
    (ClusterCoordinator, "begin_reshard", "cluster.coordinator", {}),
    (ClusterCoordinator, "migrate_next", "cluster.coordinator", {}),
    (ClusterCoordinator, "finish_reshard", "cluster.coordinator", {}),
    (ClusterCoordinator, "kill_shard", "cluster.coordinator", {}),
    (ClusterCoordinator, "begin_shard_rebuild", "cluster.coordinator", {}),
    (ClusterCoordinator, "readmit_shard", "cluster.coordinator", {}),
    (DemandTracker, "record", "cluster.popularity", {"leaf": True}),
    (DemandTracker, "record_batch", "cluster.popularity", {"leaf": True}),
    (DemandTracker, "advance_to", "cluster.popularity", {"leaf": True}),
    (DemandTracker, "demands", "cluster.popularity", {"leaf": True}),
    (ReplicationPolicy, "update", "cluster.popularity", {"leaf": True}),
    (ClusterReplicationManager, "adapt", "cluster.replication", {"keep": True}),
    (ClusterReplicationManager, "place", "cluster.replication", {}),
    (ClusterReplicationManager, "repair", "cluster.replication", {}),
    (ClusterReplicationManager, "drop_replica", "cluster.replication", {}),
    (ShardRebuilder, "step", "cluster.replication", {}),
    (ShardRouter, "plan_moves", "cluster.router", {}),
    (ShardRouter, "slots_of", "cluster.router", {"leaf": True}),
    (ShardRouter, "slot_of", "cluster.router", {"leaf": True}),
    (ShardRouter, "replica_rank", "cluster.router", {"leaf": True}),
    (repro.cluster.persistence, "snapshot_cluster", "cluster.persistence", {}),
    (repro.cluster.persistence, "cluster_to_json", "cluster.persistence", {}),
    (repro.cluster.persistence, "restore_cluster", "cluster.persistence", {}),
    (repro.cluster.fsck, "check_cluster", "cluster.fsck", {}),
    (RoundScheduler, "run_round", "server.scheduler", {}),
    (RoundScheduler, "admit", "server.scheduler", {"leaf": True}),
    (RoundScheduler, "depart", "server.scheduler", {"leaf": True}),
    # Imported by name: the scheduler resolves its own module's binding.
    (repro.server.scheduler, "gather_round_demand", "server.streams", {}),
    (Stream, "deliver", "server.streams", {"leaf": True}),
    (BackendBatchLocator, "locate_physical", "server.locate", {"items": _len_arg(1)}),
    (PlacementEngine, "locate_batch", "core.engine", {"leaf": True}),
    (PlacementEngine, "redistribution_moves_batch", "core.engine", {"leaf": True}),
    (CMServer, "add_object", "server.cmserver", {}),
    (CMServer, "remove_object", "server.cmserver", {}),
    (CMServer, "scale", "server.cmserver", {}),
    (CMServer, "begin_scale", "server.cmserver", {}),
    (CMServer, "finish_scale", "server.cmserver", {}),
    (CMServer, "reshuffle", "server.cmserver", {}),
    (CMServer, "begin_reshuffle", "server.cmserver", {}),
    (IngestSession, "step", "server.ingest", {"items": _result_int}),
    (MigrationSession, "step", "storage.migration", {"items": _result_len}),
    (repro.server.cmserver, "plan_physical_moves", "storage.migration", {}),
    (DiskArray, "move", "storage.array", {"leaf": True}),
    (DiskArray, "drop", "storage.array", {"leaf": True}),
    (DiskArray, "place", "storage.array", {"leaf": True}),
    (DiskArray, "place_physical", "storage.array", {"leaf": True}),
]
for _cls in (ClusterJournal, ScalingJournal):
    _layer = "cluster.journal" if _cls is ClusterJournal else "server.journal"
    for _kind in ("begin", "apply", "commit", "abort"):
        TARGETS.append((_cls, f"record_{_kind}", _layer, {"leaf": True}))

JOURNAL_CALLS = [
    f"{cls.__name__}.record_{kind}"
    for cls in (ClusterJournal, ScalingJournal)
    for kind in ("begin", "apply", "commit", "abort")
]


def install(tracer: Tracer) -> None:
    """Wrap every target (undo with ``tracer.uninstall()``)."""
    for owner, attr, layer, options in TARGETS:
        tracer.wrap(owner, attr, layer, **options)


# name, unit, better, moves (end-to-end metric and workload it should move)
PER_LAYER = [
    ("coordinator.round_self_ms", "ms/round", "lower", "round_ms_p50 on serve_popular; ~0 on serve_steady"),
    ("coordinator.admit_us", "us", "lower", "setup_s on all; round_ms_p50 on serve_popular"),
    ("coordinator.depart_us", "us", "lower", "setup_s on all; round_ms_p50 on serve_popular"),
    ("coordinator.route_reads_us_per_key", "us", "lower", "work_s on serve_popular"),
    ("popularity.record_calls_per_round", "count/round", "lower", "round_ms_p50, reads_per_s on serve_popular"),
    ("popularity.record_ms_per_round", "ms/round", "lower", "round_ms_p50, reads_per_s on serve_popular"),
    ("replication.adapt_ms_p50", "ms", "lower", "round_ms_p95 on serve_popular"),
    ("replication.adapt_ms_max", "ms", "lower", "round_ms_p95 on serve_popular"),
    ("replication.copies_created", "count", "lower", "round_ms_p95 on serve_popular"),
    ("replication.copies_evicted", "count", "lower", "round_ms_p95 on serve_popular"),
    ("replication.copy_survival", "ratio", "higher", "round_ms_p95 on serve_popular"),
    ("replication.rebuild_step_ms", "ms", "lower", "work_s on reorganize"),
    ("router.plan_moves_ms", "ms", "lower", "work_s on reorganize"),
    ("journal.records", "count", "lower", "work_s on reorganize"),
    ("journal.bytes", "bytes", "lower", "work_s on reorganize"),
    ("journal.append_us", "us", "lower", "work_s on reorganize"),
    ("persistence.snapshot_ms", "ms", "lower", "work_s on reorganize"),
    ("persistence.restore_ms", "ms", "lower", "work_s on reorganize"),
    ("persistence.manifest_bytes", "bytes", "lower", "work_s on reorganize"),
    ("fsck.check_ms", "ms", "lower", "work_s on reorganize"),
    ("fsck.blocks_checked", "count", "higher", "work_s on reorganize"),
    ("scheduler.round_self_ms", "ms/round", "lower", "reads_per_s on serve_steady"),
    ("scheduler.hiccups", "count", "lower", "failed share on all"),
    ("scheduler.queued", "count", "lower", "failed share on all"),
    ("streams.gather_ms", "ms/round", "lower", "reads_per_s, round_ms_p50 on serve_steady"),
    ("streams.deliver_ms", "ms/round", "lower", "reads_per_s, round_ms_p50 on serve_steady"),
    ("streams.deliver_calls", "count/round", "lower", "reads_per_s, round_ms_p50 on serve_steady"),
    ("locate.ms", "ms/round", "lower", "reads_per_s, round_ms_p50 on serve_steady"),
    ("locate.blocks_per_call", "count", "higher", "reads_per_s, round_ms_p50 on serve_steady"),
    ("engine.locate_batch_ms", "ms", "lower", "reads_per_s, round_ms_p50 on serve_steady"),
    ("cmserver.add_object_ms", "ms", "lower", "setup_s on all"),
    ("cmserver.scale_plan_ms", "ms", "lower", "work_s on reorganize"),
    ("cmserver.scale_apply_ms", "ms", "lower", "work_s on reorganize"),
    ("cmserver.reshuffle_ms", "ms", "lower", "work_s on reorganize"),
    ("ingest.blocks_per_s", "blocks/s", "higher", "round_ms_p95 on serve_popular; work_s on reorganize"),
    ("migration.moves", "count", "lower", "work_s on reorganize"),
    ("migration.moves_per_s", "1/s", "higher", "work_s on reorganize"),
    ("migration.move_ratio", "ratio", "lower", "work_s on reorganize (RO1; 0 where no disk op runs)"),
    ("array.move_calls", "count", "lower", "work_s on reorganize; round_ms_p95 on serve_popular"),
    ("array.move_us", "us", "lower", "work_s on reorganize; round_ms_p95 on serve_popular"),
    ("array.drop_calls", "count", "lower", "work_s on reorganize; round_ms_p95 on serve_popular"),
    ("array.drop_us", "us", "lower", "work_s on reorganize; round_ms_p95 on serve_popular"),
    ("placement.load_cov", "ratio", "lower", "RO2 balance at the end of the run, all workloads"),
    ("serving.availability", "ratio", "higher", "failed share on all"),
    ("untraced.share", "ratio", "lower", "coverage: wall time outside every traced layer"),
    ("trace.overhead", "ratio", "lower", "traced work_s over untraced work_s, minus 1"),
]


def _mean(stat, scale: float) -> float:
    return stat.inclusive / stat.calls * scale if stat.calls else 0.0


def derive(tracer: Tracer, outcome, wall: float, untraced_work_s: float) -> dict:
    """Every ``PER_LAYER`` value from one traced pass."""
    s = tracer.stat
    ledger = outcome.ledger
    rounds = max(ledger.rounds, 1)
    extra = outcome.extra
    adapt = s("ClusterReplicationManager.adapt").durations or []
    scale, plan, finish = (
        s("CMServer.scale"), s("CMServer.begin_scale"), s("CMServer.finish_scale")
    )
    ingest = s("IngestSession.step")
    migrate = s("MigrationSession.step")
    journal_calls = sum(s(q).calls for q in JOURNAL_CALLS)
    journal_time = sum(s(q).inclusive for q in JOURNAL_CALLS)
    record = (s("DemandTracker.record"), s("DemandTracker.record_batch"))
    traced_work = float(np.median(outcome.work_s))
    values = {
        "coordinator.round_self_ms": s("ClusterCoordinator.run_round").self_time / rounds * 1e3,
        "coordinator.admit_us": _mean(s("ClusterCoordinator.admit_stream"), 1e6),
        "coordinator.depart_us": _mean(s("ClusterCoordinator.depart_stream"), 1e6),
        "coordinator.route_reads_us_per_key": (
            s("ClusterCoordinator.route_reads").inclusive
            / max(s("ClusterCoordinator.route_reads").items, 1) * 1e6
        ),
        "popularity.record_calls_per_round": sum(r.calls for r in record) / rounds,
        "popularity.record_ms_per_round": sum(r.inclusive for r in record) / rounds * 1e3,
        "replication.adapt_ms_p50": float(np.median(adapt)) * 1e3 if adapt else 0.0,
        "replication.adapt_ms_max": max(adapt) * 1e3 if adapt else 0.0,
        "replication.copies_created": extra.get("copies_created", 0),
        "replication.copies_evicted": extra.get("copies_evicted", 0),
        "replication.copy_survival": extra.get("copy_survival", 0.0),
        "replication.rebuild_step_ms": _mean(s("ShardRebuilder.step"), 1e3),
        "router.plan_moves_ms": _mean(s("ShardRouter.plan_moves"), 1e3),
        "journal.records": journal_calls,
        "journal.bytes": extra.get("journal_bytes", 0),
        "journal.append_us": journal_time / journal_calls * 1e6 if journal_calls else 0.0,
        "persistence.snapshot_ms": _mean(s("repro.cluster.persistence.snapshot_cluster"), 1e3),
        "persistence.restore_ms": _mean(s("repro.cluster.persistence.restore_cluster"), 1e3),
        "persistence.manifest_bytes": extra.get("manifest_bytes", 0),
        "fsck.check_ms": _mean(s("repro.cluster.fsck.check_cluster"), 1e3),
        "fsck.blocks_checked": extra.get("fsck_blocks", 0),
        "scheduler.round_self_ms": s("RoundScheduler.run_round").self_time / rounds * 1e3,
        "scheduler.hiccups": ledger.hiccups,
        "scheduler.queued": ledger.queued,
        "streams.gather_ms": s("repro.server.scheduler.gather_round_demand").inclusive / rounds * 1e3,
        "streams.deliver_ms": s("Stream.deliver").inclusive / rounds * 1e3,
        "streams.deliver_calls": s("Stream.deliver").calls / rounds,
        "locate.ms": s("BackendBatchLocator.locate_physical").inclusive / rounds * 1e3,
        "locate.blocks_per_call": (
            s("BackendBatchLocator.locate_physical").items
            / max(s("BackendBatchLocator.locate_physical").calls, 1)
        ),
        "engine.locate_batch_ms": _mean(s("PlacementEngine.locate_batch"), 1e3),
        "cmserver.add_object_ms": _mean(s("CMServer.add_object"), 1e3),
        "cmserver.scale_plan_ms": _mean(plan, 1e3),
        "cmserver.scale_apply_ms": (
            (scale.inclusive - plan.inclusive - finish.inclusive) / scale.calls * 1e3
            if scale.calls else 0.0
        ),
        "cmserver.reshuffle_ms": _mean(s("CMServer.reshuffle"), 1e3),
        "ingest.blocks_per_s": ingest.items / ingest.inclusive if ingest.inclusive else 0.0,
        "migration.moves": migrate.items,
        "migration.moves_per_s": migrate.items / migrate.inclusive if migrate.inclusive else 0.0,
        "migration.move_ratio": extra.get("move_ratio", 0.0),
        "array.move_calls": s("DiskArray.move").calls,
        "array.move_us": _mean(s("DiskArray.move"), 1e6),
        "array.drop_calls": s("DiskArray.drop").calls,
        "array.drop_us": _mean(s("DiskArray.drop"), 1e6),
        "placement.load_cov": extra["load_cov"],
        "serving.availability": ledger.availability,
        "untraced.share": 1.0 - tracer.covered / wall if wall else 0.0,
        "trace.overhead": traced_work / untraced_work_s - 1.0,
    }
    missing = {name for name, *_ in PER_LAYER} ^ set(values)
    if missing:
        raise KeyError(f"per-layer metrics out of sync: {sorted(missing)}")
    return values
