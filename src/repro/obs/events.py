"""The structured event log: typed, ring-buffered, JSON-lines events.

Every interesting thing the server stack does — a health transition, a
breaker trip, a failover read, a scaling phase — is one :class:`Event`:
a monotonically sequenced, ``perf_counter``-stamped ``(kind, fields)``
record held in a bounded ring buffer.  Two properties make the log
usable in the seeded experiments:

* **determinism** — with a fixed seed, a run emits the *same events in
  the same order*; only wall-clock stamps differ.  By convention every
  wall-clock field ends in ``_s`` (seconds), so
  :meth:`EventLog.deterministic_view` can strip exactly the
  nondeterministic part and the rest compares bit-for-bit;
* **boundedness** — the ring drops the oldest events once ``capacity``
  is reached (``dropped`` counts them), so a week-long run cannot grow
  the log without bound.

The export format is JSON lines (one event per line), the same idiom the
scaling journal uses, written with a pinned ``utf-8`` encoding so event
logs are portable across platforms.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Event:
    """One structured log record.

    Attributes
    ----------
    seq:
        Monotonic per-log sequence number (deterministic under a seed).
    ts:
        ``perf_counter`` stamp at emission — wall-clock, excluded from
        determinism comparisons.
    kind:
        Dotted event name, e.g. ``"health.transition"`` — the typed part
        of the record; consumers filter on it.
    fields:
        JSON-serializable payload.  Keys ending in ``_s`` hold wall-clock
        durations in seconds and are stripped by deterministic views.
    """

    seq: int
    ts: float
    kind: str
    fields: dict[str, Any]

    def to_json(self) -> str:
        """The event as one compact JSON line."""
        return json.dumps(
            {"seq": self.seq, "ts": self.ts, "kind": self.kind,
             "fields": self.fields},
            separators=(",", ":"),
            default=str,
        )

    def deterministic(self) -> tuple[int, str, dict[str, Any]]:
        """The seed-determined part: sequence, kind, and every field that
        is not a wall-clock duration (``*_s`` keys are dropped)."""
        return (
            self.seq,
            self.kind,
            {k: v for k, v in self.fields.items() if not k.endswith("_s")},
        )


class EventLog:
    """Bounded, monotonically sequenced structured event log.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest events are evicted (and counted in
        :attr:`dropped`) once emission outruns it.
    clock:
        Timestamp source (default :func:`time.perf_counter`).  Injectable
        so tests can pin stamps.
    """

    def __init__(
        self,
        capacity: int = 65536,
        clock: Optional[Callable[[], float]] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock if clock is not None else time.perf_counter
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        #: Events evicted by the ring buffer so far.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def total_emitted(self) -> int:
        """Events ever emitted (including evicted ones)."""
        return self._seq

    @property
    def events(self) -> tuple[Event, ...]:
        """The retained events, oldest first."""
        return tuple(self._events)

    def emit(self, kind: str, /, **fields: Any) -> Event:
        """Append one event; returns it.

        ``kind`` is positional-only so payloads may carry a field
        literally named ``kind`` (e.g. a scaling operation's kind).
        """
        event = Event(seq=self._seq, ts=self._clock(), kind=kind, fields=fields)
        self._seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        return event

    def tail(self, count: int) -> tuple[Event, ...]:
        """The last ``count`` retained events, oldest first."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return ()
        return tuple(self._events)[-count:]

    def kinds(self) -> dict[str, int]:
        """Retained event count per kind (a quick profile of a run)."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def deterministic_view(self) -> list[tuple[int, str, dict[str, Any]]]:
        """The seed-determined projection of the whole log.

        Two runs of a seeded experiment must produce equal views; the
        stripped ``ts`` stamps and ``*_s`` duration fields are the only
        parts allowed to differ.
        """
        return [event.deterministic() for event in self._events]

    def to_jsonl(self, path: str | Path | None = None) -> str:
        """Serialize the retained events as JSON lines.

        Writes to ``path`` (``utf-8``, platform-independent) when given;
        always returns the text.
        """
        text = "".join(event.to_json() + "\n" for event in self._events)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @staticmethod
    def read_jsonl(path: str | Path) -> list[Event]:
        """Parse a JSONL event file back into :class:`Event` records.

        A torn final line (the crash-while-appending artifact) is
        tolerated and dropped, by the journals' own reader
        (:func:`repro.server.journal.read_jsonl`); damage anywhere else
        raises ``ValueError``.
        """
        from repro.server.journal import JournalCorruptionError, read_jsonl

        try:
            return [
                Event(
                    seq=raw["seq"],
                    ts=raw["ts"],
                    kind=raw["kind"],
                    fields=raw.get("fields", {}),
                )
                for _, raw in read_jsonl(Path(path))
            ]
        except JournalCorruptionError as exc:
            raise ValueError(f"corrupt event log line {exc.lineno}") from None

    def __repr__(self) -> str:
        return (
            f"EventLog(events={len(self._events)}, emitted={self._seq}, "
            f"capacity={self.capacity}, dropped={self.dropped})"
        )
