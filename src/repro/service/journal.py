"""Durable append-only job journal: the service's write-ahead log.

The journal is the service's one durability path: a graceful drain, a
SIGKILL, an OOM kill and a power loss all leave the same on-disk state,
and the next boot resumes from it.  Classic write-ahead-logging:

* every job **admission**, **batch of result rows**, **cancellation**,
  **worker-crash count** and **terminal state** is appended to an
  on-disk segment *before* it becomes visible to clients;
* each record is one NDJSON line framed with a CRC32 checksum, and the
  file is flushed + ``fsync``'d per append (batched per result batch),
  so a record the client ever saw is durable;
* on startup :meth:`Journal.replay` folds the segments back into
  per-job state — unfinished jobs are re-admitted with their already
  published rows intact, so a restart re-runs only the interrupted
  batch and a resumed NDJSON stream (``?from=N``) sees neither a lost
  nor a duplicated row;
* replay is **idempotent**: duplicated tails (a record flushed twice
  around a crash) and torn tails (a record half-written when the power
  went) change nothing — row records carry absolute offsets, crash
  records carry absolute totals, terminal records are last-wins, and an
  unparseable/checksum-failing final line is tolerated as a torn write.

Segments rotate by **compaction**: when the active segment outgrows
``max_segment_bytes``, the live (non-terminal) jobs are snapshotted
into a fresh segment which atomically replaces the old ones — the
journal's size is bounded by the working set, not by history.

**One writer per directory.**  The first write (or compaction) takes
an exclusive ``flock`` on ``journal.lock`` and holds it until
:meth:`Journal.close`; the kernel drops it when the process dies, so a
SIGKILL never leaves a stale lock.  A second writer fails with
``REPRO-U001`` instead of re-admitting the live writer's jobs and
compacting away the segments it still appends to.  Reading
(:meth:`Journal.replay`) takes no lock.

Record grammar (one line each, ``crc32hex json\\n``)::

    {"type": "admit",    "job": id, "tenant": t, "request": {...},
     "cells_total": n, "created_at": ts, "requeues": n}
    {"type": "rows",     "job": id, "offset": n, "rows": [...]}
    {"type": "cancel",   "job": id}
    {"type": "crash",    "job": id, "count": total}
    {"type": "terminal", "job": id, "status": s, "error": {...}|null}

Fault-injection sites (``REPRO_FAULTS``): ``journal.append`` fires
before a record is framed, ``journal.fsync`` before the fsync syscall
— both let the chaos harness prove the queue degrades instead of
dying when the journal's disk misbehaves.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.resilience.errors import UsageError
from repro.resilience.faults import fault_point
from repro.util import get_logger

__all__ = ["Journal", "JournalStats", "JobLedger", "replay_records"]

logger = get_logger(__name__)

#: Bump when the record grammar changes incompatibly; replay ignores
#: segments written by a different major version.
JOURNAL_VERSION = 1

_SEGMENT_RE = re.compile(r"^journal-(\d{8})\.ndjson$")

_RECORD_TYPES = ("admit", "rows", "cancel", "crash", "terminal")

#: The single-writer lock file inside a journal directory.
_LOCK_NAME = "journal.lock"

#: Journals holding their directory's lock in this process.
_HOLDERS: weakref.WeakSet = weakref.WeakSet()


def _drop_inherited_locks() -> None:
    """In a forked child (an engine worker), close the inherited lock
    files.  A flock belongs to the open file description, so a worker
    orphaned by a SIGKILLed daemon would otherwise hold it forever;
    closing a copy leaves the parent's lock in place."""
    for journal in list(_HOLDERS):
        journal._lock_fh.close()
        journal._lock_fh = None
    _HOLDERS.clear()


os.register_at_fork(after_in_child=_drop_inherited_locks)


def _frame(record: Mapping[str, Any]) -> bytes:
    """One journal line: ``crc32hex payload\\n`` (crc over the payload)."""
    payload = json.dumps(record, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x " % crc + payload + b"\n"


def _unframe(line: bytes) -> dict | None:
    """Parse one framed line; ``None`` when torn/corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:].rstrip(b"\n")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


@dataclass
class JobLedger:
    """Replayed state of one journaled job.

    ``rows`` holds every durably published result row in offset order;
    ``status`` is ``queued`` until a terminal record lands (``cancel``
    only marks intent — the terminal record still decides).
    """

    job_id: str
    tenant: str = ""
    request: dict = field(default_factory=dict)
    cells_total: int = 0
    created_at: float | None = None
    requeues: int = 0
    rows: list[dict] = field(default_factory=list)
    cancelled: bool = False
    crashes: int = 0
    status: str = "queued"
    error: dict | None = None

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed", "cancelled")


def replay_records(records: Iterator[dict]) -> dict[str, JobLedger]:
    """Fold journal records into per-job ledgers (pure, idempotent).

    Unknown record types and records for never-admitted jobs are
    skipped — forward compatibility and torn-compaction tolerance both
    reduce to "ignore what you cannot attribute".
    """
    jobs: dict[str, JobLedger] = {}
    for rec in records:
        rtype = rec.get("type")
        job_id = str(rec.get("job", ""))
        if not job_id or rtype not in _RECORD_TYPES:
            continue
        if rtype == "admit":
            if job_id not in jobs:  # duplicate admits are no-ops
                jobs[job_id] = JobLedger(
                    job_id=job_id,
                    tenant=str(rec.get("tenant", "")),
                    request=dict(rec.get("request") or {}),
                    cells_total=int(rec.get("cells_total", 0)),
                    created_at=rec.get("created_at"),
                    requeues=int(rec.get("requeues", 0)),
                )
            continue
        ledger = jobs.get(job_id)
        if ledger is None:
            continue
        if rtype == "rows":
            offset = int(rec.get("offset", 0))
            rows = rec.get("rows") or []
            have = len(ledger.rows)
            if offset > have:
                # A gap means an earlier record vanished (torn
                # compaction); appending would mis-offset every later
                # row, so drop the record and let re-execution fill in.
                logger.warning(
                    "journal: dropping rows record for %s at offset %d "
                    "(have %d rows)", job_id, offset, have,
                )
                continue
            # Overlap = duplicated tail; keep only the new suffix.
            ledger.rows.extend(rows[have - offset:])
        elif rtype == "cancel":
            ledger.cancelled = True
        elif rtype == "crash":
            ledger.crashes = max(ledger.crashes, int(rec.get("count", 0)))
        elif rtype == "terminal":
            status = str(rec.get("status", "failed"))
            if status in ("done", "failed", "cancelled"):
                ledger.status = status
                err = rec.get("error")
                ledger.error = dict(err) if isinstance(err, Mapping) else None
    return jobs


@dataclass(frozen=True)
class JournalStats:
    """Counters from the last :meth:`Journal.replay`."""

    segments: int = 0
    records: int = 0
    torn_tail: bool = False
    corrupt_records: int = 0


class Journal:
    """Checksummed, fsync'd, atomically-rotated NDJSON segments.

    Thread safety is the caller's job — :class:`repro.service.queue.
    JobQueue` serializes appends under its own lock (appends from
    multiple worker threads must not interleave within one record).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        fsync: bool = True,
        max_segment_bytes: int = 8 << 20,
    ) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.max_segment_bytes = max_segment_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self._fh = None
        self._lock_fh = None
        self._seq = self._latest_seq()
        self.last_replay = JournalStats()

    # -- segment bookkeeping -------------------------------------------------

    def _segments(self) -> list[Path]:
        """Existing segment files, oldest first."""
        found = []
        for entry in self.root.iterdir():
            m = _SEGMENT_RE.match(entry.name)
            if m:
                found.append((int(m.group(1)), entry))
        return [p for _, p in sorted(found)]

    def _latest_seq(self) -> int:
        segs = self._segments()
        if not segs:
            return 0
        return int(_SEGMENT_RE.match(segs[-1].name).group(1))

    def _segment_path(self, seq: int) -> Path:
        return self.root / f"journal-{seq:08d}.ndjson"

    @property
    def active_path(self) -> Path:
        return self._segment_path(self._seq)

    def _open(self):
        if self._fh is None:
            self.lock()
            self._fh = open(self.active_path, "ab")
        return self._fh

    def lock(self) -> None:
        """Become this directory's one writer (idempotent; held until
        :meth:`close`).  Raises ``REPRO-U001`` while another
        :class:`Journal` — in this process or another — holds it."""
        if self._lock_fh is not None:
            return
        fh = open(self.root / _LOCK_NAME, "ab")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.close()
            raise UsageError(
                f"journal directory {self.root} is held by another "
                "running daemon; give this one its own --journal-dir",
                code="REPRO-U001",
                context={"journal_dir": str(self.root)},
            ) from None
        self._lock_fh = fh
        _HOLDERS.add(self)

    # -- writing -------------------------------------------------------------

    def append(self, record: Mapping[str, Any], sync: bool = True) -> None:
        """Durably append one record (fsync'd unless disabled).

        Raises whatever the filesystem raises — the queue catches and
        degrades; a journal that cannot write must not take jobs down
        with it.
        """
        fault_point("journal.append", label=str(record.get("type", "")))
        fh = self._open()
        fh.write(_frame(record))
        fh.flush()
        if sync and self.fsync:
            fault_point("journal.fsync", label=str(record.get("type", "")))
            os.fsync(fh.fileno())
        if fh.tell() >= self.max_segment_bytes:
            self.compact(replay_records(self.records()))

    def sync(self) -> None:
        """fsync the active segment (after a run of ``sync=False`` appends)."""
        if self._fh is not None:
            self._fh.flush()
            if self.fsync:
                fault_point("journal.fsync", label="batch")
                os.fsync(self._fh.fileno())

    # -- reading -------------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Yield every intact record across all segments, oldest first.

        A corrupt/torn *final* line of the *newest* segment is the
        expected signature of a crash mid-write and is silently
        tolerated; corrupt records anywhere else are skipped with a
        warning (and counted in :attr:`last_replay`).
        """
        segments = self._segments()
        torn_tail = False
        corrupt = 0
        total = 0
        for si, seg in enumerate(segments):
            try:
                raw = seg.read_bytes()
            except OSError as exc:
                logger.warning("journal: cannot read %s: %s", seg, exc)
                continue
            lines = raw.split(b"\n")
            if lines and lines[-1] == b"":
                lines.pop()
            for li, line in enumerate(lines):
                rec = _unframe(line + b"\n")
                if rec is None:
                    last_segment = si == len(segments) - 1
                    last_line = li == len(lines) - 1
                    if last_segment and last_line:
                        torn_tail = True  # crash mid-append: expected
                    else:
                        corrupt += 1
                        logger.warning(
                            "journal: skipping corrupt record %s:%d",
                            seg.name, li + 1,
                        )
                    continue
                total += 1
                yield rec
        self.last_replay = JournalStats(
            segments=len(segments), records=total,
            torn_tail=torn_tail, corrupt_records=corrupt,
        )

    def replay(self) -> dict[str, JobLedger]:
        """Fold the whole journal into per-job ledgers."""
        return replay_records(self.records())

    # -- rotation ------------------------------------------------------------

    def compact(self, jobs: Mapping[str, JobLedger] | None = None) -> int:
        """Snapshot live jobs into a fresh segment; drop the history.

        Terminal jobs are forgotten (their results live in the engine
        store); live jobs are rewritten as ``admit`` + one full ``rows``
        record + their crash count.  The new segment is written to a
        temp file, fsync'd and renamed before the old segments are
        removed, so a crash mid-compaction leaves either the old
        history or the complete snapshot — never neither.  Returns the
        number of live jobs carried forward.
        """
        self.lock()
        if jobs is None:
            jobs = self.replay()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        old = self._segments()
        self._seq = (self._latest_seq() + 1) if old else self._seq + 1
        target = self._segment_path(self._seq)
        tmp = target.with_suffix(".tmp")
        live = 0
        with open(tmp, "wb") as fh:
            for ledger in jobs.values():
                if ledger.terminal:
                    continue
                live += 1
                fh.write(_frame({
                    "type": "admit", "job": ledger.job_id,
                    "tenant": ledger.tenant, "request": ledger.request,
                    "cells_total": ledger.cells_total,
                    "created_at": ledger.created_at,
                    "requeues": ledger.requeues,
                }))
                if ledger.rows:
                    fh.write(_frame({
                        "type": "rows", "job": ledger.job_id,
                        "offset": 0, "rows": ledger.rows,
                    }))
                if ledger.crashes:
                    fh.write(_frame({
                        "type": "crash", "job": ledger.job_id,
                        "count": ledger.crashes,
                    }))
                if ledger.cancelled:
                    fh.write(_frame({"type": "cancel",
                                     "job": ledger.job_id}))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, target)
        self._sync_dir()
        for seg in old:
            try:
                seg.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        logger.info(
            "journal compacted into %s: %d live job(s) carried forward",
            target.name, live,
        )
        return live

    def _sync_dir(self) -> None:
        """fsync the journal directory (rename durability on POSIX)."""
        if not self.fsync:
            return
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- convenience record writers -----------------------------------------

    def record_admit(self, job_id: str, tenant: str, request: dict,
                     cells_total: int, created_at: float,
                     requeues: int = 0) -> None:
        self.append({
            "type": "admit", "job": job_id, "tenant": tenant,
            "request": request, "cells_total": cells_total,
            "created_at": created_at, "requeues": requeues,
        })

    def record_rows(self, job_id: str, offset: int,
                    rows: list[dict]) -> None:
        self.append({"type": "rows", "job": job_id, "offset": offset,
                     "rows": rows})

    def record_cancel(self, job_id: str) -> None:
        self.append({"type": "cancel", "job": job_id})

    def record_crashes(self, job_id: str, count: int) -> None:
        self.append({"type": "crash", "job": job_id, "count": count})

    def record_terminal(self, job_id: str, status: str,
                        error: dict | None = None) -> None:
        self.append({"type": "terminal", "job": job_id, "status": status,
                     "error": error})

    def close(self) -> None:
        """Close the active segment and release the writer lock."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._lock_fh is not None:
            _HOLDERS.discard(self)
            self._lock_fh.close()
            self._lock_fh = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Journal(root={str(self.root)!r}, seq={self._seq})"
