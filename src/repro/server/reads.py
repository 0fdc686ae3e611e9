"""Degraded-mode reads: retries, failover, and reconstruction.

The read-side twin of the migration layer's fault handling: every block
read a round demands is planned by :class:`FailoverReadPlanner`, which

1. tries the block's **primary** (its current physical home), retrying
   transient read errors up to a per-round attempt budget — the
   across-round half of the backoff lives in the per-disk circuit
   breaker (:mod:`repro.server.health`), whose cooldown doubles per trip
   up to a cap;
2. on failure (or a dead / tripped / rebuilding primary) falls back to
   the Section 6 **mirror** location, or to **XOR reconstruction** from
   the block's parity group (one read per surviving member plus the
   parity block);
3. records a **hiccup** only when every recovery path failed too — the
   availability number an end user would actually observe.

Slow reads consume bandwidth but complete next round; the scheduler
counts them as *queued*, preserving the conservation invariant
``requested == served + hiccups + queued`` every round.

:func:`build_degraded_stack` wires a server into the full degraded
serving stack (monitor + planner + scrubber + scheduler) in one call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.server.faults import (
    OUTCOME_DEAD,
    OUTCOME_OK,
    OUTCOME_SLOW,
    OUTCOME_TRANSIENT,
    FaultInjector,
    MirrorDegenerateError,
    MirroredPlacement,
)
from repro.server.health import DiskHealthMonitor, Scrubber
from repro.storage.array import DiskArray
from repro.storage.block import BlockId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.server.cmserver import CMServer
    from repro.server.locate import BatchLocator
    from repro.server.scheduler import RoundScheduler

#: Read outcomes a planner can return (the first three mean "served").
PATH_PRIMARY = "primary"
PATH_MIRROR = "mirror"
PATH_PARITY = "parity"
READ_QUEUED = "queued"
READ_HICCUP = "hiccup"

#: Outcomes that delivered the block this round.
SERVED_PATHS = frozenset({PATH_PRIMARY, PATH_MIRROR, PATH_PARITY})

# Internal single-disk attempt results.
_SERVED = "served"
_SLOW = "slow"
_FAILED = "failed"
_UNAVAILABLE = "unavailable"


class ReadProtection(Protocol):
    """A redundancy scheme the planner can fall back to."""

    def recovery_paths(
        self, block_id: BlockId
    ) -> list[tuple[str, list[int]]]:
        """Ordered fallback paths for a block: ``(path_name, physical
        disks that must each supply one read)``."""
        ...


class MirrorProtection:
    """Section 6 offset mirroring as a failover source.

    The mirror location is computed, never stored (a pure function of
    the primary), so failover needs no directory — but it also means a
    single-disk array has no mirror at all; such blocks simply report no
    recovery path (:class:`~repro.server.faults.MirrorDegenerateError`
    is swallowed here and surfaced by the direct helpers).
    """

    def __init__(self, server: "CMServer"):
        self.server = server
        self.mirrored = MirroredPlacement(server.mapper)

    def recovery_paths(
        self, block_id: BlockId
    ) -> list[tuple[str, list[int]]]:
        x0 = self.server.block_x0(block_id.object_id, block_id.index)
        try:
            mirror_logical = self.mirrored.mirror_disk(x0)
        except MirrorDegenerateError:
            return []
        return [
            (PATH_MIRROR, [self.server.array.physical_at(mirror_logical)])
        ]


class ParityProtection:
    """Parity-group XOR reconstruction as a failover source.

    Blocks the greedy grouping left ungrouped (the population tail) are
    mirrored instead — the hybrid the parity module's docstring
    prescribes, so *every* block has some recovery path.

    The layout is built once over the catalog's current placement; it is
    a serving-time structure, not a scaling-time one (rebuild it after a
    scaling operation, exactly like a RAID remap).
    """

    def __init__(self, server: "CMServer", k: int = 4):
        from repro.server.parity import ParityPlacement

        self.server = server
        blocks = [
            block for media in server.catalog for block in media.blocks()
        ]
        self.layout = ParityPlacement(server.mapper, k=k).build_layout(
            [block.x0 for block in blocks]
        )
        self._index_of = {
            block.block_id: i for i, block in enumerate(blocks)
        }
        self._group_of = self.layout.membership()
        self._mirror = MirrorProtection(server)

    def recovery_paths(
        self, block_id: BlockId
    ) -> list[tuple[str, list[int]]]:
        index = self._index_of.get(block_id)
        group_id = None if index is None else self._group_of.get(index)
        if group_id is None:
            return self._mirror.recovery_paths(block_id)
        group = self.layout.groups[group_id]
        peer_logicals = [
            disk
            for member, disk in zip(group.members, group.member_disks)
            if member != index
        ]
        peer_logicals.append(group.parity_disk)
        table = self.server.array
        return [
            (PATH_PARITY, [table.physical_at(d) for d in peer_logicals])
        ]


@dataclass
class ReadStats:
    """Cumulative planner accounting (the availability ledger)."""

    requested: int = 0
    served_primary: int = 0
    served_mirror: int = 0
    served_parity: int = 0
    retries: int = 0
    queued: int = 0
    hiccups: int = 0
    #: Hiccups keyed by the block's primary disk — "hiccups attributable
    #: to disk D" is exactly this counter.
    hiccups_by_primary: Counter[int] = field(default_factory=Counter)
    #: Failover (mirror + parity) serves keyed by the primary they saved.
    failovers_by_primary: Counter[int] = field(default_factory=Counter)

    @property
    def failover_reads(self) -> int:
        """Reads served from the mirror location."""
        return self.served_mirror

    @property
    def reconstructed_reads(self) -> int:
        """Reads served by XOR reconstruction."""
        return self.served_parity

    @property
    def served(self) -> int:
        """Total reads served, any path."""
        return self.served_primary + self.served_mirror + self.served_parity


class FailoverReadPlanner:
    """Plans every degraded-mode read of a round.

    Parameters
    ----------
    array:
        The disk array served from.
    monitor:
        The health monitor consulted (and updated) per read.
    locator:
        Maps a :class:`BlockId` to its primary physical disk; defaults
        to the array inventory (correct mid-migration too).
    injector:
        Optional seeded fault source deciding each read attempt's fate.
    protection:
        Optional :class:`ReadProtection` supplying failover paths
        (mirror, parity, or nothing — retries only).
    max_attempts:
        Per-disk read attempts within one round before giving up on that
        disk (the within-round retry budget; across rounds the breaker's
        doubling cooldown is the capped exponential backoff).
    batch_locator:
        Optional :class:`~repro.server.locate.BatchLocator` resolving a
        whole round's primaries at once (the vectorized degraded path);
        defaults to a sequential wrapper over ``locator``, which is
        always bit-identical to the scalar path.
    """

    def __init__(
        self,
        array: DiskArray,
        monitor: DiskHealthMonitor,
        locator: Optional[Callable[[BlockId], int]] = None,
        injector: Optional[FaultInjector] = None,
        protection: Optional[ReadProtection] = None,
        max_attempts: int = 3,
        batch_locator: Optional["BatchLocator"] = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.array = array
        self.monitor = monitor
        self._locate = locator or array.home_of
        self._batch_locator = batch_locator
        self.injector = injector
        self.protection = protection
        self.max_attempts = max_attempts
        self.stats = ReadStats()

    @property
    def batch_locator(self) -> "BatchLocator":
        """The planner's batch locator (sequential wrapper by default)."""
        if self._batch_locator is None:
            from repro.server.locate import SequentialBatchLocator

            self._batch_locator = SequentialBatchLocator(self._locate)
        return self._batch_locator

    def account_primary_batch(self, count: int) -> None:
        """Fold ``count`` wholesale primary serves into the ledger.

        The vectorized degraded path resolves healthy-primary reads in
        one pass; per-read :meth:`serve` would have recorded exactly one
        ``requested`` and one ``served_primary`` each.
        """
        self.stats.requested += count
        self.stats.served_primary += count

    def serve(
        self,
        block_id: BlockId,
        round_index: int,
        bandwidth: dict[int, int],
        loads: Optional[dict[int, int]] = None,
    ) -> str:
        """Serve (or fail) one block read, consuming ``bandwidth``.

        Returns one of :data:`PATH_PRIMARY` / :data:`PATH_MIRROR` /
        :data:`PATH_PARITY` (served), :data:`READ_QUEUED` (arrives next
        round), or :data:`READ_HICCUP` (missed its deadline outright).

        ``loads`` (optional) is incremented once per bandwidth unit a
        disk actually spends on this read — retries charge the primary
        per attempt, failover charges the mirror or every parity-group
        member, and a dead disk is never charged.  This is the *actual*
        per-disk load the scheduler reports, not the nominal primary
        assignment.
        """
        self.stats.requested += 1
        primary = self._locate(block_id)
        result = self._try_disk(primary, round_index, bandwidth, loads)
        if result == _SERVED:
            self.stats.served_primary += 1
            return PATH_PRIMARY
        if result == _SLOW:
            self.stats.queued += 1
            return READ_QUEUED

        paths = (
            self.protection.recovery_paths(block_id)
            if self.protection is not None
            else []
        )
        for name, disks in paths:
            outcome = self._try_path(disks, round_index, bandwidth, loads)
            if outcome == _SERVED:
                if name == PATH_MIRROR:
                    self.stats.served_mirror += 1
                else:
                    self.stats.served_parity += 1
                self.stats.failovers_by_primary[primary] += 1
                return name
            if outcome == _SLOW:
                self.stats.queued += 1
                return READ_QUEUED

        self.stats.hiccups += 1
        self.stats.hiccups_by_primary[primary] += 1
        return READ_HICCUP

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _try_disk(
        self,
        physical: int,
        round_index: int,
        bandwidth: dict[int, int],
        loads: Optional[dict[int, int]] = None,
    ) -> str:
        """Attempt (with retries) one read from one disk."""
        if not self.monitor.is_readable(physical, round_index):
            return _UNAVAILABLE
        attempts = 0
        while attempts < self.max_attempts:
            if bandwidth.get(physical, 0) <= 0:
                return _FAILED
            bandwidth[physical] -= 1
            if loads is not None:
                loads[physical] = loads.get(physical, 0) + 1
            outcome = (
                self.injector.read_attempt(physical)
                if self.injector is not None
                else OUTCOME_OK
            )
            if outcome == OUTCOME_OK:
                self.monitor.observe_success(physical)
                return _SERVED
            if outcome == OUTCOME_SLOW:
                return _SLOW
            if outcome == OUTCOME_DEAD:
                self.monitor.mark_dead(physical)
                return _FAILED
            # Transient: bandwidth was spent, the breaker hears about it.
            self.monitor.observe_failure(physical, round_index)
            self.stats.retries += 1
            attempts += 1
            if not self.monitor.is_readable(physical, round_index):
                return _FAILED  # breaker tripped mid-round
        return _FAILED

    def _try_path(
        self,
        disks: list[int],
        round_index: int,
        bandwidth: dict[int, int],
        loads: Optional[dict[int, int]] = None,
    ) -> str:
        """Attempt a whole recovery path (every disk must deliver)."""
        if not all(self.monitor.is_live(pid) for pid in disks):
            return _FAILED
        if any(bandwidth.get(pid, 0) <= 0 for pid in disks):
            return _FAILED
        slow = False
        for pid in disks:
            result = self._try_disk(pid, round_index, bandwidth, loads)
            if result == _SLOW:
                slow = True  # the whole reconstruction waits a round
            elif result != _SERVED:
                return _FAILED
        return _SLOW if slow else _SERVED


@dataclass
class DegradedStack:
    """A server wired for degraded-mode serving, as one bundle."""

    server: "CMServer"
    monitor: DiskHealthMonitor
    planner: FailoverReadPlanner
    scrubber: Scrubber
    scheduler: "RoundScheduler"


def build_degraded_stack(
    server: "CMServer",
    injector: Optional[FaultInjector] = None,
    protection: Optional[str | ReadProtection] = "mirror",
    parity_k: int = 4,
    max_attempts: int = 3,
    trip_after: int = 3,
    cooldown_rounds: int = 4,
    scrub_rate: int = 8,
    admission=None,
    obs=None,
    vectorized: bool = True,
    locator: str = "inventory",
) -> DegradedStack:
    """Wire the full degraded serving stack around a server.

    ``protection`` is ``"mirror"``, ``"parity"``, ``None`` (retries
    only), or a ready :class:`ReadProtection` instance.  Mirror and
    parity need the SCADDAR backend (the offset scheme and the group
    arithmetic both live on the mapper); other backends pass ``None``.

    ``vectorized`` selects the scheduler's batched round loop (on by
    default; bit-identical to the scalar oracle).  ``locator`` picks how
    primaries are resolved: ``"inventory"`` reads the array's block
    inventory (correct mid-migration), ``"backend"`` computes placements
    through the backend's vectorized kernel (the high-throughput path;
    assumes no scaling operation is in flight).

    ``obs`` (an :class:`repro.obs.Obs`, default no-op) is shared by the
    health monitor (state-transition and breaker events) and the
    scheduler (round spans, failover events, serve counters); pass the
    server's own handle to get one unified trace.
    """
    from repro.server.scheduler import RoundScheduler

    monitor = DiskHealthMonitor(
        server.array,
        trip_after=trip_after,
        cooldown_rounds=cooldown_rounds,
        obs=obs,
    )
    if protection == "mirror":
        protection = MirrorProtection(server)
    elif protection == "parity":
        protection = ParityProtection(server, k=parity_k)
    elif isinstance(protection, str):
        raise ValueError(
            f"unknown protection {protection!r}: use 'mirror', 'parity', "
            "None, or a ReadProtection instance"
        )
    if locator == "inventory":
        scalar_locator = None
        batch_locator = None
    elif locator == "backend":
        scalar_locator = server.computed_locator()
        batch_locator = server.computed_batch_locator()
    else:
        raise ValueError(
            f"unknown locator {locator!r}: use 'inventory' or 'backend'"
        )
    planner = FailoverReadPlanner(
        server.array,
        monitor,
        locator=scalar_locator,
        injector=injector,
        protection=protection,
        max_attempts=max_attempts,
        batch_locator=batch_locator,
    )
    scrubber = Scrubber(
        server.array, monitor, rate_per_round=scrub_rate, injector=injector
    )
    scheduler = RoundScheduler(
        server.array,
        locator=scalar_locator,
        admission=admission,
        read_planner=planner,
        scrubber=scrubber,
        obs=obs,
        vectorized=vectorized,
        batch_locator=batch_locator,
    )
    return DegradedStack(
        server=server,
        monitor=monitor,
        planner=planner,
        scrubber=scrubber,
        scheduler=scheduler,
    )
