"""The three benchmark workloads, driven through the public cluster path.

Every workload is a closed loop from one process with no threads: the
caller issues each ``run_round`` only after the previous one returned,
because the round barrier stands for the server's real-time tick.  All
inputs come from the ``--seed`` argument; the program only sees the
generated calls.

* ``serve_steady`` — a large, static stream population on a plain
  SCADDAR cluster.  The per-shard serving path (gather, locate, settle,
  deliver) does almost all the work; the cluster layer and block-array
  mutation do none.
* ``serve_popular`` — stream churn with a popularity-driven replica
  budget and a flash crowd in the middle of every episode.  The cluster
  layer (demand feed, replica adaptation by ingest and eviction,
  admission) does most of the work; serving is light.
* ``reorganize`` — the paper's own operation: disk adds and removes on
  every shard, a live shard add, a shard death with rebuild, a
  reshuffle, and a manifest round trip, with light serving in between.

Sizes are in the ``CONFIGS`` table.  Bandwidth is sized so that no read
misses its round and no admission is refused on any seed: the benchmark
measures the cost of the paths, and every miss or refusal would count
as a failed operation.  Bandwidth only decides misses; serving costs the
same at any bandwidth.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import repro.cluster.fsck as cluster_fsck
import repro.cluster.persistence as cluster_persistence
from repro.cluster.coordinator import ClusterCoordinator, ClusterRoundReport
from repro.cluster.health import ObjectUnavailableError
from repro.cluster.journal import ClusterJournal
from repro.cluster.popularity import ReplicationPolicy
from repro.core.operations import ScalingOp
from repro.storage.disk import DiskSpec
from repro.workloads.generator import zipf_popularity

clock = time.perf_counter

CONFIGS: dict[str, dict] = {
    "serve_steady": {
        "shards": 8,
        "disks_per_shard": 8,
        "objects": 512,
        "blocks_per_object": 640,
        "streams": 20_000,
        "zipf": 0.729,
        # Per-disk bandwidth as a multiple of the mean per-disk demand.
        # Zipf popularity makes some shards hot; the factor keeps their
        # busiest disk below its bandwidth on every seed.
        "bandwidth_factor": 4.0,
        "max_start_block": 64,
        "setups": 3,
        "episode_rounds": 20,
        "min_rounds": 200,
    },
    "serve_popular": {
        "shards": 8,
        "disks_per_shard": 4,
        "objects": 128,
        "blocks_per_object": 120,
        "streams": 4_000,
        "zipf": 0.729,
        "copy_budget_factor": 1.5,
        "bandwidth_factor": 6.0,
        "session_rounds": [30, 100],
        "setups": 5,
        "warmup_rounds": 60,
        # The Zipf ranks are permuted half-way through every episode.
        "episode_rounds": 50,
        "min_rounds": 200,
    },
    "reorganize": {
        "shards": 8,
        "disks_per_shard": 4,
        "objects": 64,
        "blocks_per_object": 160,
        "streams": 1_000,
        "zipf": 0.729,
        "replication_factor": 2,
        "router": "consistent_hash",
        "bandwidth_factor": 8.0,
        "rounds_after_disk_op": 3,
        "rebuild_rate_per_round": 4,
        "max_start_block": 40,
        "min_episodes": 3,
    },
}


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, tag])


def _zipf_order(rng: np.random.Generator, n: int, exponent: float):
    """Object ids ranked by a seed-drawn permutation, with Zipf weights."""
    return rng.permutation(n), np.asarray(zipf_popularity(n, exponent))


def _spec(cfg: dict, disks_total: int, blocks_total: int) -> DiskSpec:
    mean_demand = cfg["streams"] / disks_total
    return DiskSpec(
        capacity_blocks=4 * math.ceil(blocks_total / disks_total),
        bandwidth_blocks_per_round=math.ceil(cfg["bandwidth_factor"] * mean_demand),
    )


def _cov(values) -> float:
    arr = np.asarray(values, dtype=float)
    mean = arr.mean()
    return float(arr.std() / mean) if mean else 0.0


def load_cov(c: ClusterCoordinator) -> float:
    """Mean over live shards of the per-disk block-count CoV (RO2)."""
    covs = [
        _cov(shard.server.load_vector())
        for shard in c.shards
        if c.health.is_live(shard.shard_id)
    ]
    return float(np.mean(covs))


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


@dataclass
class Ledger:
    """Rounds, reads, operations and failures of one workload run."""

    round_s: list[float] = field(default_factory=list)
    rounds: int = 0
    requested: int = 0
    served: int = 0
    hiccups: int = 0
    queued: int = 0
    retried: int = 0
    #: Reads served in timed rounds (the ``reads_per_s`` numerator).
    served_timed: int = 0
    #: Whether rounds are measured (off during set-up and warm-up).
    timing: bool = False
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    unavailable: int = 0

    def serve(self, c: ClusterCoordinator) -> ClusterRoundReport:
        """One closed-loop round with the conservation check."""
        t0 = clock()
        report = c.run_round()
        elapsed = clock() - t0
        requested, served = report.requested, report.served
        if self.timing:
            self.round_s.append(elapsed)
            self.served_timed += served
        hiccups, queued = report.hiccups, report.queued
        if requested != served + hiccups + queued:
            raise CheckFailed(
                f"round {report.round_index}: requested {requested} != served "
                f"{served} + hiccups {hiccups} + queued {queued}"
            )
        retried = sum(r.retried for r in report.reports.values())
        self.rounds += 1
        self.requested += requested
        self.served += served
        self.hiccups += hiccups
        self.queued += queued
        self.retried += retried
        self.attempted += requested - retried
        self.failed += hiccups + queued
        return report

    def admit(self, c: ClusterCoordinator, stream_id: int, gid: int, start: int) -> bool:
        """Admit one stream; a refusal or an unavailable object is one
        failed operation, not an abort."""
        self.attempted += 1
        try:
            c.admit_stream(stream_id, gid, start_block=start)
        except ObjectUnavailableError:
            self.unavailable += 1
        except ValueError as exc:
            if not str(exc).startswith("admission denied"):
                raise
            self.refused += 1
        else:
            return True
        self.failed += 1
        return False

    def op(self, fn: Callable, *args, **kwargs):
        """One maintenance operation (counted; an exception aborts)."""
        self.attempted += 1
        return fn(*args, **kwargs)

    @property
    def availability(self) -> float:
        unique = self.requested - self.retried
        return self.served / unique if unique else 1.0

    def digest(self) -> dict:
        return {
            "rounds": self.rounds,
            "requested": self.requested,
            "served": self.served,
            "hiccups": self.hiccups,
            "queued": self.queued,
            "attempted": self.attempted,
            "failed": self.failed,
            "refused": self.refused,
            "unavailable": self.unavailable,
        }


@dataclass
class Outcome:
    """What one workload pass measured."""

    ledger: Ledger
    setup_s: list[float]
    #: Wall time of each fixed block of work: the first ``min_rounds``
    #: measured rounds of a serve workload, or one reorganize schedule.
    work_s: list[float]
    #: Metrics that must be bit-identical across same-seed runs.
    deterministic: dict
    extra: dict = field(default_factory=dict)


def _check_same(label: str, digests: list) -> None:
    for i, digest in enumerate(digests[1:], start=1):
        if digest != digests[0]:
            raise CheckFailed(
                f"{label}: same-seed build {i} differs from build 0: "
                f"{digest} != {digests[0]}"
            )


def _measure_setups(build: Callable[[], tuple], count: int):
    """Build ``count`` same-seed clusters; keep the last.

    Each build is timed (the median is ``setup_s``) and digested; the
    digests must agree, which checks same seed ⇒ same state."""
    times, digests, state = [], [], None
    for _ in range(count):
        state = None
        gc.collect()
        t0 = clock()
        state = build()
        times.append(clock() - t0)
        digests.append(state[-1])
    _check_same("setup", digests)
    return state, times


# ----------------------------------------------------------------------
# serve_steady
# ----------------------------------------------------------------------
def _build_steady(cfg: dict, seed: int):
    rng = _rng(seed, "serve_steady")
    shards, disks = cfg["shards"], cfg["disks_per_shard"]
    n_obj, blocks = cfg["objects"], cfg["blocks_per_object"]
    spec = _spec(cfg, shards * disks, n_obj * blocks)
    ledger = Ledger()
    c = ClusterCoordinator.create(shards, disks, spec, master_seed=seed)
    gids = [c.add_object(f"steady-{i}", blocks) for i in range(n_obj)]
    order, weights = _zipf_order(rng, n_obj, cfg["zipf"])
    picks = order[rng.choice(n_obj, size=cfg["streams"], p=weights)]
    starts = rng.integers(0, cfg["max_start_block"], size=cfg["streams"])
    for sid, (obj, start) in enumerate(zip(picks.tolist(), starts.tolist())):
        ledger.admit(c, sid, gids[obj], start)
    # The first round fills each shard's per-object location cache.
    first = ledger.serve(c)
    digest = (ledger.digest(), first.served, c.total_blocks, load_cov(c))
    return c, ledger, digest


def run_serve_steady(cfg: dict, seed: int, seconds: float, setups: int) -> Outcome:
    (c, ledger, _), setup_s = _measure_setups(
        lambda: _build_steady(cfg, seed), setups
    )
    # Streams start before max_start_block and play one block per round:
    # capping the rounds keeps every stream short of its object's end.
    cap = cfg["blocks_per_object"] - cfg["max_start_block"] - 2
    episode = cfg["episode_rounds"]
    work_s, det = [], None
    t_start = clock()
    ledger.timing = True
    while ledger.rounds + episode <= cap:
        for _ in range(episode):
            ledger.serve(c)
        if det is None and len(ledger.round_s) >= cfg["min_rounds"]:
            work_s.append(clock() - t_start)
            det = {**ledger.digest(), "load_cov": load_cov(c)}
        if clock() - t_start >= seconds and det is not None:
            break
    if det is None:
        raise CheckFailed("serve_steady: round cap below min_rounds")
    return Outcome(ledger, setup_s, work_s, det, {"load_cov": load_cov(c)})


# ----------------------------------------------------------------------
# serve_popular
# ----------------------------------------------------------------------
class _Churn:
    """Constant-population stream churn over a re-rankable Zipf mix.

    Every stream watches for a seed-drawn session length and then
    departs (always before its object's last block, so no stream is
    ever finished when it leaves); each departure is replaced by an
    arrival routed through ``route_reads`` and admitted through
    ``admit_stream``."""

    def __init__(self, c: ClusterCoordinator, ledger: Ledger, cfg: dict,
                 gids: list[int], rng: np.random.Generator):
        self.c, self.ledger, self.cfg, self.gids, self.rng = c, ledger, cfg, gids, rng
        self.order, self.weights = _zipf_order(rng, len(gids), cfg["zipf"])
        self.leave_at: dict[int, list[int]] = {}
        self.next_sid = 0
        self.round = 0
        self.population = 0
        self.departed = 0

    def rerank(self) -> None:
        """Flash crowd: rotate the ranking by half, so the hot set turns
        over completely and every episode does a similar amount of
        replica adaptation whatever the seed."""
        self.order = np.roll(self.order, len(self.gids) // 2)

    def arrive(self, count: int, initial: bool = False) -> None:
        """Admit ``count`` new sessions.  The initial population starts
        part-way through its sessions (and skips ``route_reads``), so
        departures are spread over time from the first round on."""
        if count == 0:
            return
        rng, cfg = self.rng, self.cfg
        picks = self.order[rng.choice(len(self.gids), size=count, p=self.weights)]
        gids = [self.gids[i] for i in picks.tolist()]
        if not initial:
            self.ledger.attempted += len(gids)
            self.c.route_reads(gids)
        lo, hi = cfg["session_rounds"]
        lengths = rng.integers(lo, hi + 1, size=count)
        blocks = cfg["blocks_per_object"]
        for gid, length in zip(gids, lengths.tolist()):
            start = int(rng.integers(0, blocks - length))
            remaining = int(rng.integers(1, length + 1)) if initial else length
            sid = self.next_sid
            self.next_sid += 1
            if self.ledger.admit(self.c, sid, gid, start + length - remaining):
                self.leave_at.setdefault(self.round + remaining, []).append(sid)
                self.population += 1

    def step(self) -> None:
        """Serve one round, then depart finished sessions and refill."""
        self.ledger.serve(self.c)
        self.round += 1
        leaving = self.leave_at.pop(self.round, [])
        for sid in leaving:
            self.ledger.op(self.c.depart_stream, sid)
        self.departed += len(leaving)
        self.population -= len(leaving)
        self.arrive(self.cfg["streams"] - self.population)


def _build_popular(cfg: dict, seed: int):
    rng = _rng(seed, "serve_popular")
    shards, disks = cfg["shards"], cfg["disks_per_shard"]
    n_obj, blocks = cfg["objects"], cfg["blocks_per_object"]
    spec = _spec(cfg, shards * disks, n_obj * blocks * cfg["copy_budget_factor"])
    policy = ReplicationPolicy(copy_budget=int(cfg["copy_budget_factor"] * n_obj))
    ledger = Ledger()
    c = ClusterCoordinator.create(
        shards, disks, spec, master_seed=seed, replication_policy=policy
    )
    gids = [c.add_object(f"popular-{i}", blocks) for i in range(n_obj)]
    churn = _Churn(c, ledger, cfg, gids, rng)
    churn.arrive(cfg["streams"], initial=True)
    churn.step()
    digest = (ledger.digest(), c.total_blocks, churn.next_sid)
    return c, ledger, churn, digest


def _replica_copies(c: ClusterCoordinator) -> int:
    return sum(len(c.replicas_of(gid)) for gid in c.object_ids)


def run_serve_popular(cfg: dict, seed: int, seconds: float, setups: int) -> Outcome:
    (c, ledger, churn, _), setup_s = _measure_setups(
        lambda: _build_popular(cfg, seed), setups
    )
    for _ in range(cfg["warmup_rounds"]):
        churn.step()
    ledger.timing = True
    episode = cfg["episode_rounds"]
    work_s, det = [], None
    t_start = clock()
    while True:
        for i in range(episode):
            if i == episode // 2:
                churn.rerank()
            churn.step()
        if det is None and len(ledger.round_s) >= cfg["min_rounds"]:
            work_s.append(clock() - t_start)
            det = {
                **ledger.digest(),
                "copies_created": c.replication.copies_created,
                "copies_evicted": c.replication.copies_dropped,
                "copies_held": _replica_copies(c),
                "departed": churn.departed,
                "load_cov": load_cov(c),
            }
        if clock() - t_start >= seconds and det is not None:
            break
    fsck = ledger.op(cluster_fsck.check_cluster, c)
    if not fsck.clean:
        raise CheckFailed(
            f"serve_popular: check_cluster not clean ({len(fsck.misrouted)} "
            f"misrouted, {len(fsck.replica_violations)} replica violations)"
        )
    created = c.replication.copies_created
    extra = {
        "load_cov": load_cov(c),
        "copies_created": created,
        "copies_evicted": c.replication.copies_dropped,
        "copy_survival": _replica_copies(c) / created if created else 0.0,
        "fsck_blocks": fsck.blocks_checked,
    }
    return Outcome(ledger, setup_s, work_s, det, extra)


# ----------------------------------------------------------------------
# reorganize
# ----------------------------------------------------------------------
def _build_reorg(cfg: dict, seed: int, journal_path: Path):
    rng = _rng(seed, "reorganize")
    shards, disks = cfg["shards"], cfg["disks_per_shard"]
    n_obj, blocks = cfg["objects"], cfg["blocks_per_object"]
    spec = _spec(cfg, shards * disks, n_obj * blocks * cfg["replication_factor"])
    ledger = Ledger()
    journal = ClusterJournal(journal_path, fsync=False)
    c = ClusterCoordinator.create(
        shards, disks, spec, master_seed=seed, router_backend=cfg["router"],
        journal=journal, replication_factor=cfg["replication_factor"],
    )
    gids = [c.add_object(f"reorg-{i}", blocks) for i in range(n_obj)]
    order, weights = _zipf_order(rng, n_obj, cfg["zipf"])
    picks = order[rng.choice(n_obj, size=cfg["streams"], p=weights)]
    starts = rng.integers(0, cfg["max_start_block"], size=cfg["streams"])
    for sid, (obj, start) in enumerate(zip(picks.tolist(), starts.tolist())):
        ledger.admit(c, sid, gids[obj], start)
    ledger.serve(c)
    return c, ledger, journal, rng


def _fullest(c: ClusterCoordinator) -> int:
    return max(c.shard_ids, key=lambda sid: (c.shard(sid).total_blocks, -sid))


def _reorg_schedule(c: ClusterCoordinator, ledger: Ledger, rng, cfg: dict) -> dict:
    """The fixed reorganization schedule; returns its deterministic record."""
    between = cfg["rounds_after_disk_op"]
    moved, optimal = 0, 0.0

    def serve(n: int) -> None:
        for _ in range(n):
            ledger.serve(c)

    # 1. Disk-level scaling on every shard: one add, then one remove.
    for shard_id in c.shard_ids:
        for kind in ("add", "remove"):
            if kind == "add":
                op = ScalingOp.add(1)
            else:
                n_disks = c.shard(shard_id).server.num_disks
                op = ScalingOp.remove([int(rng.integers(0, n_disks))])
            report = ledger.op(c.scale_shard, shard_id, op)
            moved += report.blocks_moved
            optimal += float(report.optimal_fraction) * report.total_blocks
            serve(between)

    # 2. A live shard add, migrations interleaved with serving rounds.
    pending = ledger.op(c.begin_reshard, ScalingOp.add(1))
    while ledger.op(c.migrate_next, pending) is not None:
        serve(1)
    ledger.op(c.finish_reshard, pending)
    reshard_moves = len(pending.applied)

    # 3. Shard death: fail over, stepped rebuild with serving, re-admit.
    # Victim and reshuffle target are the fullest shards (object routing
    # does not depend on the seed, so every seed does the same amount of
    # work here).
    victim = _fullest(c)
    death = ledger.op(c.kill_shard, victim)
    rebuilder = ledger.op(
        c.begin_shard_rebuild, victim, rate_per_round=cfg["rebuild_rate_per_round"]
    )
    while not rebuilder.done:
        ledger.op(rebuilder.step)
        serve(1)
    ledger.op(rebuilder.finish)
    readmit = ledger.op(c.readmit_shard)
    serve(1)

    # 4. A full SCADDAR reshuffle on one shard.
    target = _fullest(c)
    reshuffled = ledger.op(c.reshuffle_shard, target)
    serve(between)

    # 5. Manifest round trip and cluster-wide fsck.
    manifest = ledger.op(cluster_persistence.cluster_to_json, c)
    # The manifest names the journal file, so the restored cluster
    # reopens the same one.
    with ClusterJournal(c.journal.path) as journal:
        restored = ledger.op(cluster_persistence.restore_cluster, manifest, journal)
        if ledger.op(cluster_persistence.cluster_to_json, restored) != manifest:
            raise CheckFailed("reorganize: restored cluster re-serializes differently")
    blocks_checked = 0
    for label, cluster in (("live", c), ("restored", restored)):
        report = ledger.op(cluster_fsck.check_cluster, cluster)
        if not report.clean:
            raise CheckFailed(f"reorganize: check_cluster on the {label} cluster is not clean")
        blocks_checked += report.blocks_checked
    return {
        "disk_ops_blocks_moved": moved,
        "move_ratio": moved / optimal if optimal else 0.0,
        "reshard_moves": reshard_moves,
        "failed_over": death.streams_failed_over,
        "stranded": death.streams_stranded,
        "readmit_moves": len(readmit.applied),
        "reshuffle_moves": reshuffled,
        "manifest_bytes": len(manifest),
        "fsck_blocks": blocks_checked,
        "copies_created": c.replication.copies_created,
        "copies_held": _replica_copies(c),
        "load_cov": load_cov(c),
    }


def run_reorganize(cfg: dict, seed: int, seconds: float, setups: int,
                   out_dir: Path) -> Outcome:
    ledger_total = Ledger()
    setup_s, work_s, records = [], [], []
    extra: dict = {}
    t_start = clock()
    episode = 0
    while episode < setups or clock() - t_start < seconds:
        journal_path = out_dir / f"cluster-journal-{episode}.jsonl"
        journal_path.unlink(missing_ok=True)
        gc.collect()
        t0 = clock()
        c, ledger, journal, rng = _build_reorg(cfg, seed, journal_path)
        setup_s.append(clock() - t0)
        ledger.timing = True
        t0 = clock()
        try:
            record = _reorg_schedule(c, ledger, rng, cfg)
        finally:
            journal.close()
        work_s.append(clock() - t0)
        record.update(ledger.digest())
        records.append(record)
        extra = {
            "load_cov": record["load_cov"],
            "move_ratio": record["move_ratio"],
            "journal_bytes": journal_path.stat().st_size,
            "manifest_bytes": record["manifest_bytes"],
            "fsck_blocks": record["fsck_blocks"],
            "copies_created": record["copies_created"],
            "copies_evicted": c.replication.copies_dropped,
            "copy_survival": record["copies_held"] / record["copies_created"],
        }
        journal_path.unlink()
        _merge(ledger_total, ledger)
        del c, ledger, journal
        episode += 1
    _check_same("reorganize schedule", records)
    return Outcome(ledger_total, setup_s, work_s, records[0], extra)


def _merge(total: Ledger, part: Ledger) -> None:
    total.round_s.extend(part.round_s)
    for key in ("rounds", "requested", "served", "hiccups", "queued", "retried",
                "served_timed", "attempted", "failed", "refused", "unavailable"):
        setattr(total, key, getattr(total, key) + getattr(part, key))


def run(name: str, seed: int, seconds: float, out_dir: Path,
        setups: Optional[int] = None) -> Outcome:
    """Run one workload pass; ``setups`` overrides the configured count."""
    cfg = CONFIGS[name]
    if name == "serve_steady":
        return run_serve_steady(cfg, seed, seconds, setups or cfg["setups"])
    if name == "serve_popular":
        return run_serve_popular(cfg, seed, seconds, setups or cfg["setups"])
    return run_reorganize(cfg, seed, seconds, setups or cfg["min_episodes"], out_dir)


def summary(outcome: Outcome) -> dict:
    """End-to-end metrics of one pass (untraced runs report these)."""
    ledger = outcome.ledger
    served_time = sum(ledger.round_s)
    rounds_ms = [t * 1e3 for t in ledger.round_s]
    return {
        "setup_s": float(np.median(outcome.setup_s)),
        "reads_per_s": ledger.served_timed / served_time if served_time else 0.0,
        "round_ms_p50": _percentile(rounds_ms, 50),
        "round_ms_p95": _percentile(rounds_ms, 95),
        "work_s": float(np.median(outcome.work_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def deterministic_json(outcome: Outcome) -> str:
    """Canonical text of the deterministic record (compared across runs)."""
    return json.dumps(outcome.deterministic, sort_keys=True)
