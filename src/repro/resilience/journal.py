"""Durable append-only run journal (JSONL write-ahead log).

A :class:`RunJournal` is the crash-safety primitive of the resilience
layer: completed units of work (sweep items and quarantine verdicts)
are appended as one JSON line each *before* the in-memory result is
considered durable.  Records carry:

* ``seq`` — a strictly increasing sequence number, so replay detects
  reordered or spliced files;
* ``sha256`` — a digest over the canonical JSON of the record *body*
  (everything except the digest itself), so replay detects any byte of
  in-place corruption;
* ``kind`` / ``data`` — the payload.

Durability model: lines are written and ``flush``\\ ed immediately;
``os.fsync`` is batched (every ``fsync_every`` records, plus on
:meth:`close` and :meth:`sync`) so the write amplification of per-record
fsync is paid only when asked for.  A process killed mid-``write`` can
leave at most one *torn trailing line*; :func:`read_journal` therefore
tolerates exactly that — a final line that is truncated JSON or fails
its digest is dropped (and reported), while the same damage anywhere
else in the file raises :class:`JournalCorrupt`, because a mid-file tear
cannot be produced by a crash, only by external mutation.

The format is deliberately self-contained JSONL so ``grep``/``jq`` work
on a journal, and a reader needs nothing but this module.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro import obs as _obs

PathLike = Union[str, Path]

__all__ = [
    "JOURNAL_VERSION",
    "JournalCorrupt",
    "JournalRecord",
    "ReplayReport",
    "RunJournal",
    "read_journal",
    "record_digest",
]

#: Bump when the on-disk record schema changes incompatibly.
JOURNAL_VERSION = 1


class JournalCorrupt(RuntimeError):
    """Raised when a journal is damaged beyond a torn trailing write."""


def record_digest(body: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of a record body (sans digest)."""
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JournalRecord:
    """One verified journal line."""

    seq: int
    kind: str
    data: Dict[str, Any]


@dataclass
class ReplayReport:
    """Outcome of reading a journal back.

    ``records`` holds every verified record in sequence order;
    ``torn_tail`` is the dropped trailing fragment (empty string when the
    file ended cleanly) — its presence means the writing process died
    mid-append, which is exactly the event the journal exists to survive.
    """

    records: List[JournalRecord] = field(default_factory=list)
    torn_tail: str = ""

    @property
    def clean(self) -> bool:
        return not self.torn_tail

    def of_kind(self, kind: str) -> List[JournalRecord]:
        return [r for r in self.records if r.kind == kind]


class RunJournal:
    """Append-only JSONL write-ahead log with per-record digests.

    Opened in append mode, so resuming a run writes into the same file
    the interrupted run left behind; sequence numbers continue from the
    last verified record.  Use as a context manager or call
    :meth:`close` — both fsync whatever is buffered.
    """

    def __init__(self, path: PathLike, fsync_every: int = 8):
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync_every = int(fsync_every)
        self._seq = 0
        self._since_fsync = 0
        self.records_written = 0
        self.bytes_written = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            replay = read_journal(self.path)
            if replay.records:
                self._seq = replay.records[-1].seq + 1
            if not replay.clean:
                _truncate_torn_tail(self.path, replay)
        self._handle = self.path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(self, kind: str, data: Dict[str, Any]) -> JournalRecord:
        """Durably append one record; returns the verified form.

        ``data`` must be JSON-serializable.  The line is flushed to the
        OS immediately; fsync happens every ``fsync_every`` appends (call
        :meth:`sync` to force one).
        """
        if self._handle.closed:
            raise ValueError("append() on a closed journal")
        body = {"seq": self._seq, "kind": str(kind), "data": data}
        body["sha256"] = record_digest(
            {"seq": body["seq"], "kind": body["kind"], "data": data}
        )
        line = json.dumps(body, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        self._since_fsync += 1
        if self._since_fsync >= self.fsync_every:
            self.sync()
        record = JournalRecord(seq=self._seq, kind=str(kind), data=data)
        self._seq += 1
        self.records_written += 1
        self.bytes_written += len(line) + 1
        if _obs.enabled():
            _obs.counter("resilience.journal.records").inc()
            _obs.counter("resilience.journal.bytes").inc(len(line) + 1)
        return record

    def sync(self) -> None:
        """Force an fsync of everything appended so far."""
        if self._handle.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_fsync = 0

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def next_seq(self) -> int:
        return self._seq


def _iter_lines(path: Path) -> Iterator[str]:
    with path.open("r", encoding="utf-8", newline="") as handle:
        yield from handle


def read_journal(path: PathLike) -> ReplayReport:
    """Read a journal back, tolerating (only) a torn trailing write.

    Every record's sequence number and sha256 digest are verified.  A
    final line that is incomplete JSON, lacks its trailing newline, or
    fails verification is dropped into ``torn_tail``; the same defect on
    any earlier line raises :class:`JournalCorrupt` — a crash can tear
    only the last append, so mid-file damage is real corruption.
    """
    path = Path(path)
    report = ReplayReport()
    if not path.exists():
        return report
    lines = list(_iter_lines(path))
    for lineno, raw in enumerate(lines):
        last = lineno == len(lines) - 1
        stripped = raw.rstrip("\n")
        if not stripped:
            if last:
                continue
            raise JournalCorrupt(f"{path}: blank line {lineno + 1}")
        problem: Optional[str] = None
        body = None
        if not raw.endswith("\n"):
            problem = "missing trailing newline (torn write)"
        if problem is None:
            try:
                body = json.loads(stripped)
            except json.JSONDecodeError:
                problem = "unparseable JSON"
        if problem is None:
            problem = _verify_body(body, expected_seq=len(report.records))
        if problem is not None:
            if last:
                report.torn_tail = stripped
                if _obs.enabled():
                    _obs.counter("resilience.journal.torn_tails").inc()
                break
            raise JournalCorrupt(f"{path}: line {lineno + 1}: {problem}")
        report.records.append(
            JournalRecord(
                seq=int(body["seq"]),
                kind=str(body["kind"]),
                data=body["data"],
            )
        )
    return report


def _verify_body(body: Any, expected_seq: int) -> Optional[str]:
    """Return a defect description, or ``None`` when the record is sound."""
    if not isinstance(body, dict):
        return f"record is {type(body).__name__}, not an object"
    for key in ("seq", "kind", "data", "sha256"):
        if key not in body:
            return f"missing {key!r}"
    digest = record_digest(
        {"seq": body["seq"], "kind": body["kind"], "data": body["data"]}
    )
    if digest != body["sha256"]:
        return "sha256 mismatch (corrupted record)"
    if int(body["seq"]) != expected_seq:
        return f"sequence gap: expected seq {expected_seq}, got {body['seq']}"
    return None


def _truncate_torn_tail(path: Path, replay: ReplayReport) -> None:
    """Drop a verified-torn trailing fragment before appending resumes.

    Rewriting in place (truncate at the byte offset where the tail
    starts) keeps every verified record's bytes untouched.
    """
    keep = 0
    with path.open("rb") as handle:
        data = handle.read()
    lines = data.split(b"\n")
    # Count bytes of the verified prefix: one line (plus newline) per record.
    for i in range(len(replay.records)):
        keep += len(lines[i]) + 1
    with path.open("r+b") as handle:
        handle.truncate(keep)
        handle.flush()
        os.fsync(handle.fileno())
