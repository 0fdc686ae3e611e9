"""Layer tracing from outside the program.

:class:`Tracer` replaces public functions of the ``repro`` layer modules
with timing wrappers, at the name each caller resolves: a method is
patched on its class, and a module function imported by name into
another module is patched in the importing module.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

Two kinds of wrapper exist:

* a *span* records ``(id, name, start, end, parent)`` in memory and
  charges its duration to the enclosing span's child time, so each
  function's self time is its duration minus the time its wrapped
  callees took;
* a *leaf* is for functions called once per stream or per block (a
  span per call would dominate memory): it only adds its duration and
  call count to running totals and to the enclosing span's child time.
  A leaf must not call another wrapped function.

A layer is the module that defines the function (``cluster.coordinator``,
``storage.array``, ...).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Spans kept in memory; later spans are counted but not stored.
MAX_SPANS = 400_000


@dataclass
class FnStat:
    """Running totals for one wrapped function."""

    layer: str
    calls: int = 0
    #: Wall time inside the function, counted once per outermost call
    #: of the function's own layer.
    total: float = 0.0
    #: Wall time minus the time spent in wrapped callees.
    self_time: float = 0.0
    #: Work units reported by the ``items`` extractor (keys, blocks...).
    items: int = 0
    #: Per-call durations, kept only for functions asked to keep them.
    durations: Optional[list[float]] = None
    #: Time inside the function summed over every call (nested
    #: same-layer calls included) — the per-call mean's numerator.
    inclusive: float = 0.0


@dataclass
class _Frame:
    span_id: int
    layer: str
    child: float = 0.0


class Tracer:
    """Installs wrappers, keeps spans and per-function totals."""

    def __init__(self) -> None:
        self.stats: dict[str, FnStat] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.spans_dropped = 0
        #: Wall time inside top-level spans and leaves (no wrapped caller).
        self.covered = 0.0
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        leaf: bool = False,
        keep: bool = False,
        items: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``items(args, result)`` returns the work units of one call;
        ``keep`` stores every call's duration (for percentiles).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{attr}: only plain functions are wrapped")
        qual = f"{owner.__name__}.{attr}"
        stat = self.stats.setdefault(qual, FnStat(layer=layer))
        if keep and stat.durations is None:
            stat.durations = []
        make = self._leaf if leaf else self._span
        wrapper = functools.wraps(original)(make(original, qual, stat, items))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _span(self, fn, qual: str, stat: FnStat, items):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = _Frame(span_id, stat.layer)
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.inclusive += dur
                stat.self_time += dur - frame.child
                if items is not None:
                    stat.items += items(args, result)
                if stat.durations is not None:
                    stat.durations.append(dur)
                if parent is None:
                    self.covered += dur
                    stat.total += dur
                else:
                    parent.child += dur
                    if parent.layer != stat.layer:
                        stat.total += dur
                if len(spans) < MAX_SPANS:
                    spans.append(
                        (span_id, qual, t0, t1, parent.span_id if parent else 0)
                    )
                else:
                    self.spans_dropped += 1

        return wrapper

    def _leaf(self, fn, qual: str, stat: FnStat, items):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                stat.calls += 1
                stat.inclusive += dur
                stat.self_time += dur
                if items is not None:
                    stat.items += items(args, result)
                if stack:
                    top = stack[-1]
                    top.child += dur
                    if top.layer != stat.layer:
                        stat.total += dur
                else:
                    self.covered += dur
                    stat.total += dur

        return wrapper

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def stat(self, qual: str) -> FnStat:
        """Totals of one wrapped function (zeros when never wrapped)."""
        return self.stats.get(qual) or FnStat(layer="")

    def layer_table(self, wall: float) -> list[dict]:
        """Calls, total, self time and share of ``wall`` per layer."""
        rows: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for stat in self.stats.values():
            row = rows[stat.layer]
            row["calls"] += stat.calls
            row["total_s"] += stat.total
            row["self_s"] += stat.self_time
        table = []
        for layer in sorted(rows, key=lambda k: -rows[k]["self_s"]):
            row = rows[layer]
            table.append(
                {
                    "layer": layer,
                    **row,
                    "self_share": row["self_s"] / wall if wall else 0.0,
                }
            )
        return table

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines (start/end in seconds on
        the ``perf_counter`` clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent or None,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
