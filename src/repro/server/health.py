"""Per-disk health: state machine, circuit breakers, and the scrubber.

The serving path's view of the array's disks.  Each physical disk walks
a four-state machine::

    healthy --breaker trips--> suspect --probe succeeds--> healthy
    healthy/suspect --death--> dead --replacement installed--> rebuilding
    rebuilding --scrub completes--> healthy

*Suspect* is reversible (a flaky cable, a firmware stall): a per-disk
circuit breaker trips after ``trip_after`` consecutive read failures,
blocks further reads for a cooldown that doubles on every re-trip
(capped exponential backoff), then lets exactly one *half-open* probe
through; success closes the breaker, failure re-opens it.  *Dead* is
not: only installing a replacement (``begin_rebuild``) leaves it, and
the replacement serves no reads until the :class:`Scrubber` has
re-verified every resident block and promoted it back to *healthy*.

The scrubber also runs in steady state: it walks the whole block
population at a bounded rate per round, verifies primary/mirror
agreement (divergence is injected by
:meth:`~repro.server.faults.FaultInjector.scrub_check`), and
read-repairs what it finds — the background repair loop that keeps
"degraded" a transient condition instead of a ratchet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.storage.array import DiskArray
from repro.storage.block import BlockId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsHandle
    from repro.server.faults import FaultInjector


class HealthState(Enum):
    """Serving-path health of one disk or shard."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"
    REBUILDING = "rebuilding"


#: The disk-level name of :class:`HealthState`.
DiskHealth = HealthState


class CircuitBreaker:
    """Trip-after-K breaker with capped exponential cooldown.

    Parameters
    ----------
    trip_after:
        Consecutive failures that open the breaker.
    cooldown_rounds:
        Rounds the breaker stays open before allowing one half-open
        probe.  Doubles on every consecutive re-trip, capped at
        ``max_cooldown_rounds`` — the read path's exponential backoff.
    max_cooldown_rounds:
        Cooldown growth cap.
    """

    def __init__(
        self,
        trip_after: int = 3,
        cooldown_rounds: int = 4,
        max_cooldown_rounds: int = 64,
    ):
        if trip_after < 1:
            raise ValueError(f"trip_after must be >= 1, got {trip_after}")
        if cooldown_rounds < 1:
            raise ValueError(
                f"cooldown_rounds must be >= 1, got {cooldown_rounds}"
            )
        if max_cooldown_rounds < cooldown_rounds:
            raise ValueError(
                f"max_cooldown_rounds {max_cooldown_rounds} < "
                f"cooldown_rounds {cooldown_rounds}"
            )
        self.trip_after = trip_after
        self.base_cooldown = cooldown_rounds
        self.max_cooldown = max_cooldown_rounds
        self.consecutive_failures = 0
        self.trips = 0
        self._open_since: Optional[int] = None
        self._cooldown = cooldown_rounds
        self._probing = False

    @property
    def is_open(self) -> bool:
        """Whether the breaker currently blocks reads."""
        return self._open_since is not None

    @property
    def is_quiescent(self) -> bool:
        """Closed, with no partial failure streak and the base cooldown.

        On a quiescent breaker ``allows()`` is True and
        ``record_success()`` changes no state — the property the
        vectorized degraded path relies on to serve a disk's reads
        wholesale without touching its breaker per read.
        """
        return (
            self._open_since is None
            and self.consecutive_failures == 0
            and self._cooldown == self.base_cooldown
            and not self._probing
        )

    @property
    def current_cooldown(self) -> int:
        """Rounds the breaker waits before its next half-open probe.

        Starts at ``base_cooldown``, doubles on every failed half-open
        probe, caps at ``max_cooldown``, and resets to the base on any
        success — the property the backoff Hypothesis test pins.
        """
        return self._cooldown

    def allows(self, round_index: int) -> bool:
        """Whether a read may be attempted this round.

        Open breakers admit exactly one probe per round once the
        cooldown has elapsed (the half-open state).
        """
        if self._open_since is None:
            return True
        if round_index - self._open_since < self._cooldown:
            return False
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        """A read succeeded: close the breaker, reset the backoff."""
        self.consecutive_failures = 0
        self._open_since = None
        self._cooldown = self.base_cooldown
        self._probing = False

    def record_failure(self, round_index: int) -> bool:
        """A read failed; returns True when this failure trips the
        breaker (closed -> open, or a half-open probe re-opening it)."""
        self.consecutive_failures += 1
        if self._open_since is not None:
            # A failed half-open probe: re-open with doubled cooldown.
            self.trips += 1
            self._open_since = round_index
            self._cooldown = min(self._cooldown * 2, self.max_cooldown)
            self._probing = False
            return True
        if self.consecutive_failures >= self.trip_after:
            self.trips += 1
            self._open_since = round_index
            self._probing = False
            return True
        return False

    def new_round(self) -> None:
        """Reset the one-probe-per-round latch."""
        self._probing = False


class HealthTransitionError(Exception):
    """Raised on an illegal health-state transition."""


class HealthMonitor:
    """Tracks the health state and circuit breaker of every member.

    One implementation for both layers: disks of an array
    (:class:`DiskHealthMonitor`) and shards of a cluster
    (:class:`~repro.cluster.health.ClusterHealthMonitor`).  Subclasses
    set only what differs between them: the event-kind prefix, the
    payload key naming a member, the member label in events, which ids
    :meth:`snapshot` lists, and whether a rebuilt member may return to
    healthy.

    Parameters
    ----------
    trip_after / cooldown_rounds / max_cooldown_rounds:
        Breaker tuning, applied to every member.
    obs:
        Optional observability handle; state transitions emit
        ``health.transition`` events, breaker trips ``breaker.trip``
        (with the post-trip cooldown) and closing probes
        ``breaker.probe`` (each kind prefixed by :attr:`event_prefix`).
    """

    #: Prefix of every emitted event kind.
    event_prefix = ""
    #: Event payload key naming the member (also its noun in errors).
    member_key = "member"
    #: Whether ``REBUILDING -> HEALTHY`` is legal: a member rebuilt in
    #: place returns to service; one evacuated elsewhere never does.
    rebuilt_in_place = True

    def __init__(
        self,
        trip_after: int = 3,
        cooldown_rounds: int = 4,
        max_cooldown_rounds: int = 64,
        obs: Optional["ObsHandle"] = None,
    ):
        from repro.obs import NULL_OBS

        self._trip_after = trip_after
        self._cooldown = cooldown_rounds
        self._max_cooldown = max_cooldown_rounds
        self.obs = obs if obs is not None else NULL_OBS
        self._states: dict[int, HealthState] = {}
        self._breakers: dict[int, CircuitBreaker] = {}
        #: Cumulative state-transition log: (member id, from, to).
        self.transitions: list[tuple[int, HealthState, HealthState]] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state(self, member_id: int) -> HealthState:
        """Current health state of a member (healthy until told otherwise)."""
        return self._states.get(member_id, HealthState.HEALTHY)

    def breaker(self, member_id: int) -> CircuitBreaker:
        """The member's circuit breaker (created on first touch)."""
        breaker = self._breakers.get(member_id)
        if breaker is None:
            breaker = CircuitBreaker(
                self._trip_after, self._cooldown, self._max_cooldown
            )
            self._breakers[member_id] = breaker
        return breaker

    def is_live(self, member_id: int) -> bool:
        """Whether the member holds readable data (not dead/rebuilding).

        Suspect members are *live* — their copies still exist and the
        breaker may re-admit them — they are just not currently
        preferred.
        """
        return self.state(member_id) not in (
            HealthState.DEAD,
            HealthState.REBUILDING,
        )

    def is_readable(self, member_id: int, round_index: int) -> bool:
        """Whether the serving path may read this member this round.

        Dead and rebuilding members never serve; suspect members serve
        only the breaker's half-open probe.
        """
        if self.state(member_id) in (HealthState.DEAD, HealthState.REBUILDING):
            return False
        return self.breaker(member_id).allows(round_index)

    def serves_unimpeded(self, member_id: int) -> bool:
        """Whether a successful read from this member needs no per-read
        health machinery this round.

        True when the member is healthy and its breaker (if one was
        ever created) is quiescent: ``is_readable`` would be True and
        ``observe_success`` would be a state no-op, so the vectorized
        paths can serve all of the member's reads in one batch.
        Deliberately does *not* create a breaker.
        """
        if self.state(member_id) is not HealthState.HEALTHY:
            return False
        breaker = self._breakers.get(member_id)
        return breaker is None or breaker.is_quiescent

    def snapshot(self) -> dict[int, str]:
        """Health state of every listed member (see :meth:`_member_ids`)."""
        return {mid: self.state(mid).value for mid in self._member_ids()}

    def members_in(self, state: HealthState) -> list[int]:
        """Listed member ids currently in the given state, sorted."""
        return sorted(
            mid for mid in self._member_ids() if self.state(mid) is state
        )

    # ------------------------------------------------------------------
    # Observations / transitions
    # ------------------------------------------------------------------
    def observe_success(self, member_id: int) -> None:
        """A read from the member succeeded (closes the breaker; a
        suspect member whose probe succeeded returns to healthy)."""
        breaker = self.breaker(member_id)
        was_open = breaker.is_open
        breaker.record_success()
        if was_open and self.obs.enabled:
            self.obs.event(
                self.event_prefix + "breaker.probe",
                **{self.member_key: self._label(member_id)},
                ok=True,
            )
        if self.state(member_id) is HealthState.SUSPECT:
            self._transition(member_id, HealthState.HEALTHY)

    def observe_failure(self, member_id: int, round_index: int) -> None:
        """A read from the member failed; trips the breaker after K in a
        row, demoting the member to suspect."""
        breaker = self.breaker(member_id)
        tripped = breaker.record_failure(round_index)
        if tripped and self.obs.enabled:
            self.obs.event(
                self.event_prefix + "breaker.trip",
                **{self.member_key: self._label(member_id)},
                round=round_index,
                trips=breaker.trips,
                cooldown=breaker.current_cooldown,
            )
        if tripped and self.state(member_id) is HealthState.HEALTHY:
            self._transition(member_id, HealthState.SUSPECT)

    def mark_dead(self, member_id: int) -> None:
        """The member died (its data is unreachable until rebuilt)."""
        if self.state(member_id) is not HealthState.DEAD:
            self._transition(member_id, HealthState.DEAD)

    def begin_rebuild(self, member_id: int) -> None:
        """A rebuild of the dead member started."""
        state = self.state(member_id)
        if state is not HealthState.DEAD:
            raise HealthTransitionError(
                f"{self.member_key} {member_id} is {state.value}, not "
                f"dead; only dead {self.member_key}s can begin rebuilding"
            )
        self._transition(member_id, HealthState.REBUILDING)

    def mark_healthy(self, member_id: int) -> None:
        """The suspect (or, when :attr:`rebuilt_in_place`, rebuilt)
        member is whole again."""
        state = self.state(member_id)
        if state is HealthState.DEAD or (
            state is HealthState.REBUILDING and not self.rebuilt_in_place
        ):
            raise HealthTransitionError(
                f"{self.member_key} {member_id} is {state.value}; "
                + (
                    "install a replacement (begin_rebuild) before marking "
                    "it healthy"
                    if self.rebuilt_in_place
                    else f"dead {self.member_key}s are evacuated and "
                    "detached, not revived"
                )
            )
        self.breaker(member_id).record_success()
        if state is not HealthState.HEALTHY:
            self._transition(member_id, HealthState.HEALTHY)

    def new_round(self) -> None:
        """Advance per-round breaker state (one half-open probe each)."""
        for breaker in self._breakers.values():
            breaker.new_round()

    # ------------------------------------------------------------------
    # Per-layer hooks
    # ------------------------------------------------------------------
    def _member_ids(self) -> Iterable[int]:
        """Ids :meth:`snapshot` and :meth:`members_in` list: every
        member ever observed, ascending."""
        return sorted(self._states)

    def _label(self, member_id: int) -> int:
        """The member's id as event payloads carry it (must be
        seed-stable, so ``deterministic_view`` comparisons are exact)."""
        return member_id

    def _transition(self, member_id: int, to: HealthState) -> None:
        state = self.state(member_id)
        self.transitions.append((member_id, state, to))
        self._states[member_id] = to
        if self.obs.enabled:
            self.obs.event(
                self.event_prefix + "health.transition",
                **{self.member_key: self._label(member_id)},
                old=state.value,
                new=to.value,
            )


class DiskHealthMonitor(HealthMonitor):
    """Tracks every disk's health state and circuit breaker.

    Parameters
    ----------
    array:
        The disk array being monitored (new disks are picked up lazily).
    trip_after / cooldown_rounds / max_cooldown_rounds / obs:
        As for :class:`HealthMonitor`.
    """

    member_key = "disk"

    def __init__(
        self,
        array: DiskArray,
        trip_after: int = 3,
        cooldown_rounds: int = 4,
        max_cooldown_rounds: int = 64,
        obs: Optional["ObsHandle"] = None,
    ):
        super().__init__(trip_after, cooldown_rounds, max_cooldown_rounds, obs)
        self.array = array

    #: Physical ids currently in the given state, sorted.
    disks_in = HealthMonitor.members_in

    def _member_ids(self) -> Iterable[int]:
        """Every disk currently in the array (healthy by default)."""
        return self.array.physical_ids

    def _label(self, physical_id: int) -> int:
        """The disk's logical position, for event payloads.

        Physical ids come from a process-global counter, so two seeded
        runs in one process get different raw ids; the logical position
        is seed-stable, keeping ``deterministic_view`` comparisons exact.
        Falls back to -1 for a disk no longer in the array.
        """
        try:
            return self.array.logical_of(physical_id)
        except KeyError:
            return -1


@dataclass
class ScrubReport:
    """What one scrub round did."""

    round_index: int
    #: Background verifications performed (primary/mirror comparisons).
    checked: int = 0
    #: Divergent blocks read-repaired.
    repaired: int = 0
    #: Blocks copied onto rebuilding disks this round.
    rebuilt_blocks: int = 0
    #: Disks promoted rebuilding -> healthy this round.
    completed_disks: list[int] = field(default_factory=list)


class Scrubber:
    """Background verify/repair loop, bounded blocks per round.

    Two jobs, rebuild first:

    1. **Rebuild** — for every ``rebuilding`` disk, re-copy up to the
       round's budget of its resident blocks from their surviving
       replicas; when the whole inventory is re-verified the disk is
       promoted to ``healthy``.
    2. **Patrol** — spend any leftover budget walking the global block
       population in block-id order, comparing primary and mirror copies
       (the injector decides divergence) and read-repairing mismatches.

    Parameters
    ----------
    array:
        The disk array being scrubbed.
    monitor:
        The health monitor (the scrubber drives its
        ``rebuilding -> healthy`` edge).
    rate_per_round:
        Max blocks touched per round (rebuild copies + patrol checks) —
        the knob that keeps scrubbing from starving stream service.
    injector:
        Optional fault injector supplying deterministic divergence.
    on_repair:
        Optional callback ``(block_id) -> None`` invoked per repair
        (metrics hooks).
    """

    def __init__(
        self,
        array: DiskArray,
        monitor: DiskHealthMonitor,
        rate_per_round: int = 8,
        injector: Optional["FaultInjector"] = None,
        on_repair: Optional[Callable[[BlockId], None]] = None,
    ):
        if rate_per_round < 1:
            raise ValueError(
                f"rate_per_round must be >= 1, got {rate_per_round}"
            )
        self.array = array
        self.monitor = monitor
        self.rate_per_round = rate_per_round
        self.injector = injector
        self.on_repair = on_repair
        self.total_checked = 0
        self.total_repaired = 0
        self.total_rebuilt = 0
        self._rebuild_done: dict[int, int] = {}
        self._patrol_cursor = 0
        self._population_cache: list[BlockId] = []
        self._population_version = -1

    def rebuild_progress(self, physical_id: int) -> float:
        """Fraction of a rebuilding disk's inventory re-verified so far
        (1.0 for any disk not currently rebuilding)."""
        if self.monitor.state(physical_id) is not DiskHealth.REBUILDING:
            return 1.0
        resident = len(self.array.blocks_on_physical(physical_id))
        if resident == 0:
            return 1.0
        return min(1.0, self._rebuild_done.get(physical_id, 0) / resident)

    def run_round(self, round_index: int) -> ScrubReport:
        """One scrub round under the configured rate budget."""
        report = ScrubReport(round_index=round_index)
        budget = self.rate_per_round

        for pid in self.monitor.disks_in(DiskHealth.REBUILDING):
            if budget <= 0:
                break
            resident = len(self.array.blocks_on_physical(pid))
            done = self._rebuild_done.get(pid, 0)
            step = min(budget, resident - done)
            if step > 0:
                done += step
                budget -= step
                self._rebuild_done[pid] = done
                report.rebuilt_blocks += step
                self.total_rebuilt += step
            if done >= resident:
                self.monitor.mark_healthy(pid)
                self._rebuild_done.pop(pid, None)
                report.completed_disks.append(pid)

        if budget > 0:
            population = self._population()
            while budget > 0 and population:
                self._patrol_cursor %= len(population)
                block_id = population[self._patrol_cursor]
                self._patrol_cursor += 1
                budget -= 1
                report.checked += 1
                self.total_checked += 1
                if self.injector is not None and self.injector.scrub_check():
                    report.repaired += 1
                    self.total_repaired += 1
                    if self.on_repair is not None:
                        self.on_repair(block_id)
        return report

    def _population(self) -> list[BlockId]:
        """All resident blocks in deterministic (block-id) order.

        The scan is O(total blocks) so the result is cached against the
        array's :attr:`~repro.storage.array.DiskArray.inventory_version`;
        block moves keep the membership (and thus this list) unchanged,
        so only place/drop invalidate it.  The sorted order is identical
        to an uncached rebuild — patrol semantics do not change.
        """
        version = self.array.inventory_version
        if version != self._population_version:
            blocks: list[BlockId] = []
            for pid in self.array.physical_ids:
                blocks.extend(
                    b.block_id for b in self.array.blocks_on_physical(pid)
                )
            blocks.sort(key=lambda b: (b.object_id, b.index))
            self._population_cache = blocks
            self._population_version = version
        return self._population_cache
