"""The durable scaling journal: crash consistency for online scaling.

SCADDAR's snapshot (:mod:`repro.server.persistence`) captures a server at
a quiescent point, but the paper's whole premise is that scaling runs
*while the server serves* — and a crash mid-migration leaves the physical
disks half-moved with nothing that says which moves landed.  The journal
closes that gap with a classic intent/apply/commit record per scaling
operation, append-only JSON lines, O(moved blocks) per operation:

* ``begin`` — written by :meth:`CMServer.begin_scale` once the mapper has
  the new epoch and the RF() plan is known: the operation, the disk
  counts, and the full move list (block ids + *logical* endpoints —
  physical ids are process-local and would not survive a restart);
* ``apply`` — one O(1) record per executed :class:`PhysicalMove`, written
  by :meth:`MigrationSession.step` after the transfer lands;
* ``commit`` — written by :meth:`CMServer.finish_scale`;
* ``abort`` — written by :meth:`CMServer.abort_scale` after rollback.

Full redistributions journal through the same protocol under their own
op kind (:class:`ReshuffleOp`): ``begin`` carries the reset's complete
move plan, each landed move gets an ``apply``, and
:meth:`CMServer.finish_reshuffle` writes the ``commit`` — so a crash at
any move index of a reshuffle resumes exactly like a crashed scale.

``snapshot + journal`` is a complete recovery story:
:func:`repro.server.persistence.resume_server` replays committed
operations wholesale, skips aborted ones, and rebuilds the exact
mid-migration state of an open one (tests/test_journal_resume.py proves
bit-identical layouts for a kill after *every* move index).

The framing — storage, the torn-tail reader, the replay walk and the
write-time protocol checks — lives in :class:`JsonlJournal`, shared with
the cluster layer's :class:`~repro.cluster.journal.ClusterJournal`; a
subclass supplies only its begin-record schema and its apply payload.
A journal can live in memory (``path=None``, for experiments and
simulations) or on disk, where every record is flushed on write and
optionally fsync'd (``fsync=True``) so the record survives power loss.
A torn final line — the classic crash-while-appending artifact — is
tolerated and dropped on replay; damage anywhere else raises
:class:`JournalCorruptionError` naming the line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.core.operations import ScalingOp
from repro.storage.block import BlockId


class JournalError(Exception):
    """Raised on journal corruption or protocol violations."""


class JournalCorruptionError(JournalError):
    """A damaged record anywhere but the torn final line.

    A torn *final* line is the expected crash artifact and is dropped
    silently; a damaged *interior* record (unparseable JSON, or valid
    JSON missing required fields) means the file itself was harmed —
    truncation, bit rot, concurrent writers — and recovery must stop.
    ``lineno`` names the 1-based damaged line so the operator can
    inspect exactly where the journal went bad.
    """

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"corrupt journal line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


def read_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, record)`` for every record of a JSON-lines file.

    Line numbers are 1-based file positions (blank lines are counted
    and skipped), so an error names the line an editor would show.  A
    torn final line is dropped; any other unparseable line raises
    :class:`JournalCorruptionError`.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                return  # torn final line: the crash artifact
            raise JournalCorruptionError(
                lineno, f"unparseable record ({exc.msg})"
            ) from None
        yield lineno, record


class JournalRecord:
    """State shared by every per-operation journal record (a mixin for
    dataclasses declaring these fields)."""

    plan: tuple
    applied: list
    committed: bool
    aborted: bool

    @property
    def open(self) -> bool:
        """Whether the operation is still in flight."""
        return not (self.committed or self.aborted)

    @property
    def remaining(self) -> int:
        """Planned moves without an apply record."""
        return len(self.plan) - len(self.applied)


class JsonlJournal:
    """Append-only begin/apply/commit/abort journal in JSON lines.

    The framing both journal layers share.  Each operation is a
    ``begin`` record (its intent and plan), one ``apply`` per landed
    move, and a terminal ``commit`` or ``abort``; one operation is open
    at a time.  Subclasses define the ``record_*`` writers, the begin
    schema (:meth:`_parse_begin`) and the apply payload
    (:meth:`_parse_apply`).

    Parameters
    ----------
    path:
        JSON-lines file to append to (created if missing).  ``None``
        keeps records in memory — same semantics, no durability; useful
        for simulations and the chaos experiments.
    fsync:
        When True, ``os.fsync`` after every record — the full durability
        contract, at one syscall per record.  Off by default; records
        are still flushed to the OS on every write.
    """

    #: Prefix of the obs metric names (``<prefix>records``,
    #: ``<prefix>fsync.seconds``).
    obs_prefix = "journal."

    def __init__(self, path: str | Path | None = None, fsync: bool = False):
        from repro.obs import NULL_OBS

        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self.obs = NULL_OBS
        self._records: list[dict] = []
        self._fh = None
        # Seq of the open operation (None: nothing open), kept current
        # as records are written.  An existing file is replayed once, on
        # the first write, to find it.
        self._open_seq: Optional[int] = None
        self._open_seq_stale = self.path is not None and self.path.exists()
        if self.path is not None:
            self._fh = open(self.path, "a", encoding="utf-8")

    def attach_obs(self, obs) -> None:
        """Attach an observability handle (:class:`repro.obs.Obs`):
        records count into ``<prefix>records`` (labelled by type) and
        every fsync is timed into ``<prefix>fsync.seconds``."""
        self.obs = obs

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_commit(self, seq: int) -> None:
        """Journal completion of an operation."""
        self._write({"type": "commit", "seq": seq})

    def record_abort(self, seq: int) -> None:
        """Journal rollback of an operation."""
        self._write({"type": "abort", "seq": seq})

    def sync(self) -> None:
        """Force the journal to stable storage (no-op in memory)."""
        if self._fh is not None:
            self._fh.flush()
            with self.obs.timer(self.obs_prefix + "fsync.seconds"):
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the backing file (in-memory journals are unaffected)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay(self) -> list:
        """Parse the journal into per-operation records, oldest first.

        Raises
        ------
        JournalCorruptionError
            On a damaged record anywhere but the final line — both
            unparseable JSON and structurally incomplete records (a
            torn final line is the expected crash artifact and is
            dropped).
        JournalError
            On well-formed records that violate the protocol (apply
            before begin, seq mismatches, unknown types).
        """
        records: list = []
        for lineno, entry in self._read_raw():
            kind = entry.get("type")
            if kind == "begin":
                try:
                    records.append(self._parse_begin(entry))
                except (
                    AttributeError, KeyError, TypeError, ValueError
                ) as exc:
                    raise JournalCorruptionError(
                        lineno, f"damaged begin record ({exc!r})"
                    )
                continue
            if not records:
                raise JournalError(
                    f"record {lineno}: {kind!r} before any 'begin'"
                )
            current = records[-1]
            if entry.get("seq") != current.seq:
                raise JournalError(
                    f"record {lineno}: seq {entry.get('seq')} does not "
                    f"match open operation seq {current.seq}"
                )
            if kind == "apply":
                if not current.open:
                    raise JournalError(
                        f"record {lineno}: apply after commit/abort"
                    )
                try:
                    current.applied.append(self._parse_apply(entry))
                except (KeyError, TypeError) as exc:
                    raise JournalCorruptionError(
                        lineno, f"damaged apply record ({exc!r})"
                    )
            elif kind == "commit":
                current.committed = True
            elif kind == "abort":
                current.aborted = True
            else:
                raise JournalError(f"record {lineno}: unknown type {kind!r}")
        return records

    def open_record(self):
        """The in-flight operation's record, if the journal ends
        mid-operation."""
        records = self.replay()
        if records and records[-1].open:
            return records[-1]
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _parse_begin(self, entry: dict):
        """The record dataclass for one ``begin`` entry."""
        raise NotImplementedError

    def _parse_apply(self, entry: dict):
        """The applied-move key of one ``apply`` entry."""
        raise NotImplementedError

    def _write(self, record: dict) -> None:
        """Append one record after checking it against the open
        operation: a ``begin`` needs none open, any other record must
        carry the open operation's seq (a stray record would make every
        later replay fail)."""
        kind, seq = record["type"], record["seq"]
        if self._open_seq_stale:
            last = self.open_record()
            self._open_seq = last.seq if last is not None else None
            self._open_seq_stale = False
        if kind == "begin" and self._open_seq is not None:
            raise JournalError(
                f"operation seq={self._open_seq} is still open; commit or "
                "abort it before beginning another"
            )
        if kind != "begin" and self._open_seq != seq:
            raise JournalError(
                f"{kind} for seq={seq} does not match the open operation "
                f"(seq={self._open_seq})"
            )
        self._append(record)
        self._open_seq = None if kind in ("commit", "abort") else seq

    def _append(self, record: dict) -> None:
        """Write one record as is (no protocol check)."""
        if self.obs.enabled:
            self.obs.inc(self.obs_prefix + "records", type=record["type"])
        if self.path is None:
            self._records.append(record)
        elif self._fh is not None:
            self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._fh.flush()
            if self.fsync:
                with self.obs.timer(self.obs_prefix + "fsync.seconds"):
                    os.fsync(self._fh.fileno())

    def _read_raw(self) -> list[tuple[int, dict]]:
        """(1-based line number, parsed record) for every record."""
        if self.path is None:
            return list(enumerate(self._records, start=1))
        if not self.path.exists():
            return []
        return list(read_jsonl(self.path))

    def __repr__(self) -> str:
        where = str(self.path) if self.path is not None else "memory"
        records = len(self._read_raw())
        return f"{type(self).__name__}({where}, records={records})"


@dataclass(frozen=True)
class ReshuffleOp:
    """The journal's record of one full redistribution (reset).

    A reshuffle is not a :class:`~repro.core.operations.ScalingOp` — it
    changes no disk count and resets the backend's log instead of
    appending to it — but it moves blocks and must survive a crash just
    like a scale, so it journals through the same
    begin/apply/commit protocol under its own op kind.

    Attributes
    ----------
    epoch:
        1-based count of reshuffles once this one commits; doubles as
        the record's ``seq`` (reshuffle seq numbers live in their own
        space — scaling seqs restart from 1 after each reset).
    """

    epoch: int
    kind: str = field(default="reshuffle", init=False)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {"kind": "reshuffle", "epoch": self.epoch}

    @classmethod
    def from_dict(cls, data: dict) -> "ReshuffleOp":
        """Inverse of :meth:`to_dict`."""
        if data.get("kind") != "reshuffle":
            raise ValueError(f"not a ReshuffleOp payload: {data!r}")
        return cls(epoch=data["epoch"])


@dataclass(frozen=True)
class LogicalMove:
    """One planned move in logical-index space (stable across restarts).

    ``source_logical``/``target_logical`` index the disk array *as it was
    when the operation began* (doomed disks of a removal are still
    attached then, so survivors keep their pre-removal indices).
    """

    block_id: BlockId
    source_logical: int
    target_logical: int


@dataclass
class OpJournalRecord(JournalRecord):
    """Everything the journal knows about one scaling operation.

    Attributes
    ----------
    seq:
        The operation's 1-based position in the operation log (``j``).
    op:
        The scaling operation itself.
    n_before / n_after:
        Disk counts around the operation.
    plan:
        The full move list recorded at ``begin`` time.
    applied:
        Block ids whose moves were journaled as executed, in order.
    committed / aborted:
        Terminal states; an open record has neither.
    """

    seq: int
    op: "ScalingOp | ReshuffleOp"
    n_before: int
    n_after: int
    plan: tuple[LogicalMove, ...]
    applied: list[BlockId] = field(default_factory=list)
    committed: bool = False
    aborted: bool = False

    @property
    def is_reshuffle(self) -> bool:
        """Whether this record journals a full redistribution."""
        return isinstance(self.op, ReshuffleOp)


class ScalingJournal(JsonlJournal):
    """Append-only intent/apply/commit journal for scaling operations.

    The :class:`JsonlJournal` framing with :class:`OpJournalRecord`
    records over :class:`LogicalMove` plans; see there for ``path`` and
    ``fsync``.

    Examples
    --------
    >>> journal = ScalingJournal()          # in-memory
    >>> journal.replay()
    []
    """

    def record_begin(
        self,
        seq: int,
        op: "ScalingOp | ReshuffleOp",
        n_before: int,
        n_after: int,
        moves: Iterable[LogicalMove],
    ) -> None:
        """Journal the intent of one scaling operation (plan included).

        Raises
        ------
        JournalError
            If another operation is still open — one scaling operation
            runs at a time, and overlapping intents would make replay
            ambiguous.
        """
        self._write(
            {
                "type": "begin",
                "seq": seq,
                "op": op.to_dict(),
                "n_before": n_before,
                "n_after": n_after,
                "plan": [
                    [
                        m.block_id.object_id,
                        m.block_id.index,
                        m.source_logical,
                        m.target_logical,
                    ]
                    for m in moves
                ],
            }
        )

    def record_apply(self, seq: int, block_id: BlockId) -> None:
        """Journal one executed move (after the transfer landed)."""
        self._write(
            {
                "type": "apply",
                "seq": seq,
                "block": [block_id.object_id, block_id.index],
            }
        )

    # Defined on the class itself so per-class method wrappers (e.g.
    # the perfbench tracer) see them.
    record_commit = JsonlJournal.record_commit
    record_abort = JsonlJournal.record_abort

    def _parse_begin(self, entry: dict) -> OpJournalRecord:
        op_data = entry["op"]
        op: ScalingOp | ReshuffleOp = (
            ReshuffleOp.from_dict(op_data)
            if op_data.get("kind") == "reshuffle"
            else ScalingOp.from_dict(op_data)
        )
        return OpJournalRecord(
            seq=entry["seq"],
            op=op,
            n_before=entry["n_before"],
            n_after=entry["n_after"],
            plan=tuple(
                LogicalMove(BlockId(o, i), src, dst)
                for o, i, src, dst in entry["plan"]
            ),
        )

    def _parse_apply(self, entry: dict) -> BlockId:
        return BlockId(*entry["block"])
