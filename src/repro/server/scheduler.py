"""Round-based retrieval scheduling.

Continuous media is served in fixed rounds: every active stream must
receive its next block(s) each round or the client observes a *hiccup*.
Each disk can serve a bounded number of block reads per round (its
bandwidth); randomized placement keeps per-round disk queues balanced by
the law of large numbers (Section 1), which is exactly what the
round-level statistics here expose.

The scheduler has two serving paths:

* the **simple path** (no ``read_planner``): every read either fits its
  primary disk's bandwidth or hiccups — the paper's baseline model;
* the **degraded path** (with a
  :class:`~repro.server.reads.FailoverReadPlanner`): each read runs the
  full retry / failover / reconstruction chain against the per-disk
  health state (:mod:`repro.server.health`), slow reads defer to the
  next round as *queued*, and an attached scrubber spends a bounded
  budget per round on verify/repair.  Every round then satisfies the
  conservation invariant ``requested == served + hiccups + queued``.

Each path exists in two implementations: the original **scalar** loop
(the semantic oracle, one ``(stream, block)`` pair at a time) and a
**vectorized** round planner (``vectorized=True``, the default) that
gathers the whole round's demand into arrays
(:func:`~repro.server.streams.gather_round_demand`), resolves locations
through a batch locator, and settles per-disk bandwidth with
``np.bincount`` plus segmented rank arithmetic.  The vectorized planner
is bit-identical to the scalar one — same reports, same per-stream
hiccup ledger, same obs event sequence (``tests/test_scheduler_parity``
pins this).  On the degraded path, reads whose primary disk is healthy
with a quiescent breaker are settled wholesale; the minority touching
suspect / dead / overloaded disks (plus anything sharing a recovery
path with them) run through the scalar planner loop in request order,
preserving per-read retry/breaker semantics exactly.  A round with a
fault injector attached, or with reads queued from the previous round,
falls back to the scalar loop outright: the injector draws one seeded
RNG value per attempt, so only the per-read loop replays it faithfully.

Degraded-path accounting is *actual*, not nominal: ``load_by_physical``
charges each read to the disk(s) that really spent bandwidth on it
(mirror and parity members on failover, the primary per retry attempt)
— never to a dead primary — and a read queued in round *r* that is
re-requested in round *r+1* is counted in ``retried``, so availability
can be computed over unique demand instead of double-counting the same
block (see :class:`~repro.server.metrics.MetricsSummary`).

With an ``obs=`` handle attached (:mod:`repro.obs`) every round runs
inside a ``round.serve`` span (scrubbing under a nested ``round.scrub``
span), failover serves emit ``read.failover`` events, and the
serve/failover/scrub ledger lands in counters (``reads.*``,
``scrub.*``).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.server.streams import RoundDemand, Stream, gather_round_demand
from repro.storage.array import DiskArray
from repro.storage.block import BlockId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs import ObsHandle
    from repro.server.admission import AdmissionPolicy
    from repro.server.health import Scrubber
    from repro.server.locate import BatchLocator
    from repro.server.reads import FailoverReadPlanner


@dataclass
class RoundReport:
    """What happened in one scheduling round.

    Attributes
    ----------
    round_index:
        Sequence number of the round.
    requested:
        Block reads demanded by active streams.
    served:
        Reads delivered this round (any path: primary, failover or
        reconstruction).
    hiccups:
        Reads that missed their deadline with every recovery path
        exhausted.
    queued:
        Reads deferred to the next round (slow disk: bandwidth spent,
        data late).  ``requested == served + hiccups + queued`` holds
        every round.
    retried:
        Re-requests of reads queued in the *previous* round (the same
        block demanded again by the same stream).  A retried read is
        counted in ``requested`` both rounds but represents one unit of
        unique demand; availability over the horizon divides by
        ``requested - retried`` (always 0 on the simple path, which
        never queues).
    failover_reads:
        Reads served from the Section 6 mirror location.
    reconstructed_reads:
        Reads served by XOR reconstruction from a parity group.
    scrub_checked / scrub_repaired / scrub_rebuilt:
        The round's scrubber activity (0 without a scrubber).
    load_by_physical:
        Per-disk read load.  Simple path: reads demanded per primary
        disk (queue length, may exceed bandwidth).  Degraded path: reads
        each disk *actually performed* — failover charges the mirror or
        the parity-group members, retries charge the primary per
        attempt, and a dead disk is charged nothing.
    spare_by_physical:
        Leftover bandwidth per physical disk after stream service — the
        budget the online scaler hands to migration.  Dead and
        rebuilding disks report 0 spare (they cannot carry migration
        transfers).
    health_by_physical:
        Health state name per physical disk (empty on the simple path).
    """

    round_index: int
    requested: int = 0
    served: int = 0
    hiccups: int = 0
    queued: int = 0
    retried: int = 0
    failover_reads: int = 0
    reconstructed_reads: int = 0
    scrub_checked: int = 0
    scrub_repaired: int = 0
    scrub_rebuilt: int = 0
    load_by_physical: dict[int, int] = field(default_factory=dict)
    spare_by_physical: dict[int, int] = field(default_factory=dict)
    health_by_physical: dict[int, str] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        """Fraction of the round's demand served on time (1.0 idle)."""
        return self.served / self.requested if self.requested else 1.0


def _slots_of(
    table: tuple[int, ...], physical: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map physical disk ids to logical slots via a lookup table.

    Returns ``(slots, valid)``: ``slots[i]`` is the logical index of
    ``physical[i]`` in ``table`` or -1 for ids not in the array (a
    custom locator may point anywhere; the scalar path silently ignores
    such demand, so the vectorized path must drop it identically).
    """
    table_arr = np.asarray(table, dtype=np.int64)
    max_pid = int(table_arr.max())
    lut = np.full(max_pid + 2, -1, dtype=np.int64)
    lut[table_arr] = np.arange(table_arr.shape[0], dtype=np.int64)
    out_of_range = (physical < 0) | (physical > max_pid)
    slots = lut[np.clip(physical, 0, max_pid + 1)]
    slots[out_of_range] = -1
    return slots, slots >= 0


class RoundScheduler:
    """Serves a set of streams from a disk array, round by round.

    Parameters
    ----------
    array:
        The disk array holding the blocks (reads are charged to the
        block's *physical* home, so a mid-migration block is correctly
        served from wherever its bytes currently are).
    locator:
        Optional override mapping a :class:`BlockId` to a physical disk;
        defaults to the array's inventory.
    admission:
        Optional admission policy (default: aggregate-bandwidth).
    read_planner:
        Optional :class:`~repro.server.reads.FailoverReadPlanner`;
        switches the scheduler to the degraded serving path.
    scrubber:
        Optional :class:`~repro.server.health.Scrubber` run at the end
        of each degraded round (rate-bounded verify/repair).
    obs:
        Optional observability handle (:class:`repro.obs.Obs`); defaults
        to the no-op :data:`~repro.obs.NULL_OBS`.
    vectorized:
        Whether rounds run through the batched numpy planner (default)
        or the scalar reference loop.  Both produce bit-identical
        results; the flag exists for benchmarking and as the oracle in
        parity tests.
    batch_locator:
        Optional :class:`~repro.server.locate.BatchLocator` used by the
        vectorized simple path; defaults to a sequential wrapper over
        ``locator``.  (The degraded path uses the planner's own batch
        locator.)
    """

    def __init__(
        self,
        array: DiskArray,
        locator: Callable[[BlockId], int] | None = None,
        admission: "AdmissionPolicy | None" = None,
        read_planner: Optional["FailoverReadPlanner"] = None,
        scrubber: Optional["Scrubber"] = None,
        obs: Optional["ObsHandle"] = None,
        vectorized: bool = True,
        batch_locator: Optional["BatchLocator"] = None,
    ):
        from repro.obs import NULL_OBS
        from repro.server.admission import AggregateAdmission
        from repro.server.locate import SequentialBatchLocator

        self.array = array
        self._locate = locator or array.home_of
        self._batch_locator = batch_locator or SequentialBatchLocator(self._locate)
        self.admission = admission or AggregateAdmission()
        self.read_planner = read_planner
        self.scrubber = scrubber
        self.obs = obs if obs is not None else NULL_OBS
        self.vectorized = vectorized
        self._streams: dict[int, Stream] = {}
        self._round_index = 0
        self.total_hiccups = 0
        #: Running total of active streams' demand (blocks/round), kept
        #: exact by per-stream activity watchers — O(1) per admission
        #: instead of a full re-sum.
        self._active_demand = 0
        #: Cumulative hiccups charged to each stream id (fairness data).
        self.hiccups_by_stream: dict[int, int] = defaultdict(int)
        #: (stream id, block id) pairs queued last round: the next
        #: round's demand for one of these is a re-request, not new
        #: unique demand (see :attr:`RoundReport.retried`).
        self._queued_last_round: set[tuple[int, BlockId]] = set()

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    @property
    def streams(self) -> tuple[Stream, ...]:
        """All admitted streams (including finished ones)."""
        return tuple(self._streams.values())

    @property
    def active_streams(self) -> int:
        """Streams currently demanding blocks."""
        return sum(1 for s in self._streams.values() if s.is_active)

    @property
    def active_demand(self) -> int:
        """Aggregate demand (blocks/round) of currently active streams."""
        return self._active_demand

    def admit(self, stream: Stream) -> None:
        """Admit a stream, subject to the configured admission policy.

        The default :class:`~repro.server.admission.AggregateAdmission`
        rejects streams whose rate would push aggregate demand past the
        array's aggregate bandwidth; statistical policies leave headroom
        for the per-disk variance of random placement.
        """
        if stream.stream_id in self._streams:
            raise ValueError(f"stream id {stream.stream_id} already admitted")
        if not self.admission.admits(
            self.array, self._active_demand, stream.media.blocks_per_round
        ):
            raise ValueError(
                f"admission denied by {type(self.admission).__name__}: "
                f"active demand {self._active_demand} + new rate "
                f"{stream.media.blocks_per_round} blocks/round"
            )
        self._streams[stream.stream_id] = stream
        if stream.is_active:
            self._active_demand += stream.media.blocks_per_round
        stream.add_activity_watcher(self._on_activity_change)

    def depart(self, stream_id: int) -> Stream:
        """Remove a stream (client disconnect)."""
        try:
            stream = self._streams.pop(stream_id)
        except KeyError:
            raise KeyError(f"stream id {stream_id} is not admitted")
        stream.remove_activity_watcher(self._on_activity_change)
        if stream.is_active:
            self._active_demand -= stream.media.blocks_per_round
        return stream

    def _on_activity_change(self, stream: Stream, active: bool) -> None:
        rate = stream.media.blocks_per_round
        self._active_demand += rate if active else -rate

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def run_round(self) -> RoundReport:
        """Serve one round: collect demands, enforce per-disk bandwidth."""
        if self.read_planner is not None:
            return self._run_round_degraded()
        return self._run_round_simple()

    def _run_round_simple(self) -> RoundReport:
        report = RoundReport(round_index=self._round_index)
        self._round_index += 1

        with self.obs.span("round.serve", round=report.round_index):
            if self.vectorized:
                self._simple_round_vectorized(report)
            else:
                self._simple_round_scalar(report)

        self.total_hiccups += report.hiccups
        self._count_round(report)
        return report

    def _simple_round_scalar(self, report: RoundReport) -> None:
        """The scalar reference: per-disk Python queues in demand order."""
        demand_by_disk: dict[int, list[tuple[Stream, BlockId]]] = defaultdict(
            list
        )
        for stream in self._streams.values():
            for block_id in stream.blocks_needed():
                demand_by_disk[self._locate(block_id)].append(
                    (stream, block_id)
                )

        served_by_stream: dict[int, int] = defaultdict(int)
        for pid in self.array.physical_ids:
            bandwidth = self.array.disk(pid).bandwidth_blocks_per_round
            queue = demand_by_disk.get(pid, [])
            report.load_by_physical[pid] = len(queue)
            served_here = min(len(queue), bandwidth)
            for stream, __ in queue[:served_here]:
                served_by_stream[stream.stream_id] += 1
            for stream, __ in queue[served_here:]:
                self.hiccups_by_stream[stream.stream_id] += 1
            report.requested += len(queue)
            report.served += served_here
            report.hiccups += len(queue) - served_here
            report.spare_by_physical[pid] = bandwidth - served_here

        for stream in self._streams.values():
            stream.deliver(served_by_stream.get(stream.stream_id, 0))

    def _simple_round_vectorized(self, report: RoundReport) -> None:
        """Batched planning: bincount loads, segmented-rank serving.

        Within one disk's queue the scalar path serves in arrival order
        (stream iteration order); a stable argsort over the slot array
        preserves exactly that order within each disk segment, so the
        rank-under-bandwidth mask picks the same winners.
        """
        demand = gather_round_demand(self._streams.values())
        table = self.array.physical_ids
        n_disks = len(table)
        bw = np.fromiter(
            (self.array.disk(pid).bandwidth_blocks_per_round for pid in table),
            dtype=np.int64,
            count=n_disks,
        )
        if demand.total == 0:
            zeros = [0] * n_disks
            report.load_by_physical = dict(zip(table, zeros))
            report.spare_by_physical = dict(zip(table, bw.tolist()))
            for stream in demand.streams:
                stream.deliver(0)
            return

        physical = self._batch_locator.locate_physical(
            demand.object_ids, demand.block_indices
        )
        slots, valid = _slots_of(table, physical)
        stream_slots = demand.stream_slots
        if not valid.all():
            # Demand routed outside the array is silently ignored by the
            # scalar path (its per-disk loop never visits those ids).
            slots = slots[valid]
            stream_slots = stream_slots[valid]

        counts = np.bincount(slots, minlength=n_disks)
        served_per_disk = np.minimum(counts, bw)
        order = np.argsort(slots, kind="stable")
        starts = np.cumsum(counts) - counts
        ranks = np.arange(slots.shape[0], dtype=np.int64) - np.repeat(
            starts, counts
        )
        served_mask = ranks < np.repeat(bw, counts)
        sorted_streams = stream_slots[order]

        n_streams = len(demand.streams)
        served_by_stream = np.bincount(
            sorted_streams[served_mask], minlength=n_streams
        )
        report.requested = int(counts.sum())
        report.served = int(served_per_disk.sum())
        report.hiccups = report.requested - report.served
        report.load_by_physical = dict(zip(table, counts.tolist()))
        report.spare_by_physical = dict(
            zip(table, (bw - served_per_disk).tolist())
        )
        if report.hiccups:
            hiccups_by_stream = np.bincount(
                sorted_streams[~served_mask], minlength=n_streams
            )
            for slot in np.flatnonzero(hiccups_by_stream):
                self.hiccups_by_stream[
                    demand.streams[slot].stream_id
                ] += int(hiccups_by_stream[slot])
        for stream, count in zip(demand.streams, served_by_stream.tolist()):
            stream.deliver(int(count))

    def _run_round_degraded(self) -> RoundReport:
        """One round through the failover read planner.

        Reads are planned in stream-admission order (deterministic);
        each consumes bandwidth wherever its serving path actually read
        — primary, mirror, or every member of a parity group.
        """
        planner = self.read_planner
        assert planner is not None
        report = RoundReport(round_index=self._round_index)
        self._round_index += 1
        planner.monitor.new_round()

        bandwidth = {
            pid: self.array.disk(pid).bandwidth_blocks_per_round
            for pid in self.array.physical_ids
        }
        report.load_by_physical = {pid: 0 for pid in bandwidth}
        served_by_stream: dict[int, int] = defaultdict(int)
        demanded_by_stream: dict[int, int] = defaultdict(int)
        queued_now: set[tuple[int, BlockId]] = set()
        obs = self.obs

        # The injector draws one seeded RNG value per read attempt, in
        # request order, and queued re-requests need per-read identity —
        # both force the scalar loop to keep the sequence bit-exact.
        use_vectorized = (
            self.vectorized
            and planner.injector is None
            and not self._queued_last_round
        )
        with obs.span("round.serve", round=report.round_index):
            if use_vectorized:
                self._degraded_round_vectorized(
                    planner, report, bandwidth, served_by_stream,
                    demanded_by_stream, queued_now,
                )
            else:
                self._degraded_round_scalar(
                    planner, report, bandwidth, served_by_stream,
                    demanded_by_stream, queued_now,
                )
        self._queued_last_round = queued_now

        # Dead and rebuilding disks have no usable spare bandwidth: the
        # online scaler must not schedule migration transfers on them.
        report.spare_by_physical = {
            pid: left if planner.monitor.is_live(pid) else 0
            for pid, left in bandwidth.items()
        }

        if self.scrubber is not None:
            with obs.span("round.scrub", round=report.round_index):
                scrub = self.scrubber.run_round(report.round_index)
            report.scrub_checked = scrub.checked
            report.scrub_repaired = scrub.repaired
            report.scrub_rebuilt = scrub.rebuilt_blocks

        report.health_by_physical = planner.monitor.snapshot()

        for stream in self._streams.values():
            stream.deliver(
                served_by_stream.get(stream.stream_id, 0),
                demanded=demanded_by_stream.get(stream.stream_id, 0),
            )

        self.total_hiccups += report.hiccups
        self._count_round(report)
        return report

    def _degraded_round_scalar(
        self,
        planner: "FailoverReadPlanner",
        report: RoundReport,
        bandwidth: dict[int, int],
        served_by_stream: dict[int, int],
        demanded_by_stream: dict[int, int],
        queued_now: set[tuple[int, BlockId]],
    ) -> None:
        for stream in self._streams.values():
            for block_id in stream.blocks_needed():
                report.requested += 1
                demanded_by_stream[stream.stream_id] += 1
                if (stream.stream_id, block_id) in self._queued_last_round:
                    report.retried += 1
                outcome = planner.serve(
                    block_id,
                    report.round_index,
                    bandwidth,
                    loads=report.load_by_physical,
                )
                self._account_degraded_outcome(
                    stream, block_id, outcome, report,
                    served_by_stream, queued_now,
                )

    def _degraded_round_vectorized(
        self,
        planner: "FailoverReadPlanner",
        report: RoundReport,
        bandwidth: dict[int, int],
        served_by_stream: dict[int, int],
        demanded_by_stream: dict[int, int],
        queued_now: set[tuple[int, BlockId]],
    ) -> None:
        """Hybrid batched planning over the disk-health state vector.

        Partition the round's reads by their primary disk: a disk whose
        reads can *only* succeed-on-first-attempt (healthy, quiescent
        breaker, demand within bandwidth) has all of them settled
        wholesale; every other read — plus any read whose recovery path
        touches such a disk, found by fixed-point expansion — runs
        through the scalar planner loop in original request order.  The
        two sets touch disjoint disks, so wholesale settling first
        cannot change what the scalar subset observes.
        """
        demand = gather_round_demand(self._streams.values())
        streams = demand.streams
        n_streams = len(streams)
        if demand.total:
            demanded_counts = np.bincount(
                demand.stream_slots, minlength=n_streams
            )
            for slot in np.flatnonzero(demanded_counts):
                demanded_by_stream[streams[slot].stream_id] += int(
                    demanded_counts[slot]
                )
        report.requested += demand.total
        if demand.total == 0:
            return

        table = self.array.physical_ids
        n_disks = len(table)
        physical = planner.batch_locator.locate_physical(
            demand.object_ids, demand.block_indices
        )
        slots, valid = _slots_of(table, physical)
        safe_slots = np.where(valid, slots, 0)
        counts = np.bincount(safe_slots[valid], minlength=n_disks)
        bw = np.fromiter(
            (bandwidth[pid] for pid in table), dtype=np.int64, count=n_disks
        )
        fast_disk = np.fromiter(
            (planner.monitor.serves_unimpeded(pid) for pid in table),
            dtype=bool,
            count=n_disks,
        )
        # A disk is "slow" when any of its reads could take a non-trivial
        # path: impaired health/breaker state, or more demand than
        # bandwidth (the overflow reads fail over or hiccup).
        slow = (~fast_disk) | (counts > bw)
        scalar_req = ~valid | slow[safe_slots]

        if scalar_req.any():
            self._expand_slow_set(
                planner, demand, slots, valid, slow, scalar_req
            )

        fast_req = ~scalar_req
        n_fast = int(np.count_nonzero(fast_req))
        if n_fast:
            # Wholesale settle: every fast read succeeds on its first
            # primary attempt — one bandwidth unit, one load unit, one
            # served_primary each, no breaker/monitor state change.
            planner.account_primary_batch(n_fast)
            report.served += n_fast
            fast_counts = np.bincount(slots[fast_req], minlength=n_disks)
            loads = report.load_by_physical
            for slot in np.flatnonzero(fast_counts):
                pid = table[slot]
                batch = int(fast_counts[slot])
                loads[pid] += batch
                bandwidth[pid] -= batch
            fast_streams = np.bincount(
                demand.stream_slots[fast_req], minlength=n_streams
            )
            for slot in np.flatnonzero(fast_streams):
                served_by_stream[streams[slot].stream_id] += int(
                    fast_streams[slot]
                )

        if n_fast != demand.total:
            object_ids = demand.object_ids
            block_indices = demand.block_indices
            stream_slots = demand.stream_slots
            for req in np.flatnonzero(scalar_req).tolist():
                stream = streams[int(stream_slots[req])]
                block_id = BlockId(
                    int(object_ids[req]), int(block_indices[req])
                )
                outcome = planner.serve(
                    block_id,
                    report.round_index,
                    bandwidth,
                    loads=report.load_by_physical,
                )
                self._account_degraded_outcome(
                    stream, block_id, outcome, report,
                    served_by_stream, queued_now,
                )

    def _expand_slow_set(
        self,
        planner: "FailoverReadPlanner",
        demand: RoundDemand,
        slots: np.ndarray,
        valid: np.ndarray,
        slow: np.ndarray,
        scalar_req: np.ndarray,
    ) -> None:
        """Fixed-point: pull recovery-path disks of scalar reads into the
        slow set (in place), re-deriving ``scalar_req`` until stable.

        A scalar read may fail over and spend bandwidth on its mirror or
        parity-group disks; those disks must not be settled wholesale or
        the scalar subset would observe different remaining bandwidth
        than the full scalar loop.  ``recovery_paths`` is a pure function
        of the block, so pre-computing it here matches what the planner
        will resolve during the round.
        """
        protection = planner.protection
        if protection is None:
            return
        table = self.array.physical_ids
        slot_of = {pid: i for i, pid in enumerate(table)}
        pending = np.flatnonzero(scalar_req).tolist()
        processed: set[int] = set(pending)
        while pending:
            grew = False
            for req in pending:
                block_id = BlockId(
                    int(demand.object_ids[req]),
                    int(demand.block_indices[req]),
                )
                for __, disks in protection.recovery_paths(block_id):
                    for pid in disks:
                        slot = slot_of.get(pid)
                        if slot is not None and not slow[slot]:
                            slow[slot] = True
                            grew = True
            if not grew:
                break
            np.copyto(
                scalar_req, ~valid | slow[np.where(valid, slots, 0)]
            )
            pending = [
                req
                for req in np.flatnonzero(scalar_req).tolist()
                if req not in processed
            ]
            processed.update(pending)

    def _account_degraded_outcome(
        self,
        stream: Stream,
        block_id: BlockId,
        outcome: str,
        report: RoundReport,
        served_by_stream: dict[int, int],
        queued_now: set[tuple[int, BlockId]],
    ) -> None:
        from repro.server.reads import (
            PATH_MIRROR,
            PATH_PARITY,
            PATH_PRIMARY,
            READ_QUEUED,
            SERVED_PATHS,
        )

        obs = self.obs
        if outcome in SERVED_PATHS:
            report.served += 1
            served_by_stream[stream.stream_id] += 1
            if outcome == PATH_MIRROR:
                report.failover_reads += 1
            elif outcome == PATH_PARITY:
                report.reconstructed_reads += 1
            if outcome != PATH_PRIMARY and obs.enabled:
                obs.event(
                    "read.failover",
                    block=[block_id.object_id, block_id.index],
                    path=outcome,
                    round=report.round_index,
                )
        elif outcome == READ_QUEUED:
            report.queued += 1
            queued_now.add((stream.stream_id, block_id))
        else:
            report.hiccups += 1
            self.hiccups_by_stream[stream.stream_id] += 1

    def _count_round(self, report: RoundReport) -> None:
        """Fold one round's totals into the obs counters (batched)."""
        obs = self.obs
        if not obs.enabled:
            return
        obs.inc("reads.requested", report.requested)
        obs.inc("reads.served", report.served)
        obs.inc("reads.hiccups", report.hiccups)
        obs.inc("reads.queued", report.queued)
        obs.inc("reads.retried", report.retried)
        obs.inc("reads.failover", report.failover_reads)
        obs.inc("reads.reconstructed", report.reconstructed_reads)
        obs.inc("scrub.checked", report.scrub_checked)
        obs.inc("scrub.repaired", report.scrub_repaired)
        obs.inc("scrub.rebuilt", report.scrub_rebuilt)

    def run_rounds(self, count: int) -> list[RoundReport]:
        """Run ``count`` rounds and return their reports."""
        if count < 0:
            raise ValueError(f"round count must be >= 0, got {count}")
        return [self.run_round() for _ in range(count)]

    def peak_queue_per_round(self, reports: Iterable[RoundReport]) -> list[int]:
        """Largest single-disk demand of each round (load-balance signal)."""
        return [
            max(report.load_by_physical.values(), default=0) for report in reports
        ]
