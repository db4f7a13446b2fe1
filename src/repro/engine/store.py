"""Content-addressed on-disk result store.

Layout
------
::

    <root>/v1/<key[:2]>/<key>.json

where ``<root>`` is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro`` and the
``v1`` segment is the entry schema version — a schema bump abandons old
entries wholesale instead of attempting migration (results are cheap to
recompute; wrong results are not).

Each entry is a standalone JSON document::

    {"schema": 1, "key": "<sha256>", "kind": "whatif.point",
     "created_at": 1754..., "label": "...", "result": {...}}

Guarantees
----------
* **atomic writes** — entries are written to a same-directory temp file
  and ``os.replace``-d into place, so a concurrent reader sees either
  the old entry or the new one, never a torn file;
* **corruption tolerance** — an entry that fails to parse, carries the
  wrong schema, or whose embedded key mismatches its filename is
  treated as a miss and unlinked (counted in
  ``engine_cache_corrupt_total``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.obs import get_registry
from repro.resilience.errors import StoreError, UsageError
from repro.resilience.faults import fault_point, wants_corruption
from repro.util import get_logger

__all__ = ["STORE_SCHEMA_VERSION", "ResultStore", "StoreStats", "default_cache_dir"]

logger = get_logger(__name__)

#: Version of the on-disk entry schema (also the ``v<N>`` dir segment).
STORE_SCHEMA_VERSION = 1

_KEY_CHARS = set("0123456789abcdef")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass
class StoreStats:
    """Aggregate view of one store (``repro cache stats``).

    ``bytes_read`` / ``bytes_written`` are *cumulative process-lifetime*
    I/O counters (mirrored to ``engine_store_bytes_read_total`` /
    ``engine_store_bytes_written_total`` on ``/metrics``), not a disk
    walk — they are what cache-efficiency dashboards divide by.
    """

    path: str
    schema: int
    entries: int = 0
    total_bytes: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    oldest_age_s: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0

    def to_text(self) -> str:
        lines = [
            f"cache directory : {self.path}",
            f"entry schema    : v{self.schema}",
            f"entries         : {self.entries:,}",
            f"total size      : {self.total_bytes / 1024:,.1f} KiB",
        ]
        for kind in sorted(self.by_kind):
            lines.append(f"  {kind:<22} {self.by_kind[kind]:,}")
        if self.entries:
            lines.append(f"oldest entry    : {self.oldest_age_s:,.0f}s ago")
        lines.append(
            f"bytes read      : {self.bytes_read:,} (this process)"
        )
        lines.append(
            f"bytes written   : {self.bytes_written:,} (this process)"
        )
        return "\n".join(lines)


class ResultStore:
    """Content-addressed JSON result cache.

    Parameters
    ----------
    root:
        Cache root; defaults to :func:`default_cache_dir`.  The store
        only ever touches ``root/v<schema>``.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.base = self.root / f"v{STORE_SCHEMA_VERSION}"
        reg = get_registry()
        self._corrupt = reg.counter(
            "engine_cache_corrupt_total",
            "cache entries dropped as unreadable/invalid",
        )
        self._bytes_read = reg.counter(
            "engine_store_bytes_read_total",
            "bytes deserialized from the on-disk result store",
        )
        self._bytes_written = reg.counter(
            "engine_store_bytes_written_total",
            "bytes serialized into the on-disk result store",
        )

    # -- paths --------------------------------------------------------------

    def _path(self, key: str) -> Path:
        if len(key) != 64 or not set(key) <= _KEY_CHARS:
            raise UsageError(f"not a sha256 hex key: {key!r}")
        return self.base / key[:2] / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        if not self.base.is_dir():
            return
        for prefix in sorted(self.base.iterdir()):
            if prefix.is_dir():
                yield from sorted(prefix.glob("*.json"))

    # -- read/write ---------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The cached result dict for ``key``, or ``None`` on miss.

        Any form of corruption — unparsable JSON, wrong schema, key
        mismatch, non-dict result — demotes the entry to a miss and
        removes it so it cannot poison later runs.
        """
        path = self._path(key)
        fault_point("store.get", label=key)
        if wants_corruption("store.get", label=key) and path.is_file():
            # Fault harness: garble the on-disk entry *before* reading it,
            # proving the corruption-tolerance path below on demand.
            try:
                path.write_bytes(b"\x00garbage\xff not json")
            except OSError:  # pragma: no cover - injection best effort
                pass
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except UnicodeDecodeError:
            # Torn/garbled bytes that are not even text: same corruption
            # path as unparsable JSON below.
            raw = "\x00"
        except OSError as exc:  # pragma: no cover - exotic FS errors
            logger.warning("cache read failed for %s: %s", path, exc)
            return None
        self._bytes_read.inc(len(raw))
        try:
            doc = json.loads(raw)
            if (
                not isinstance(doc, dict)
                or doc.get("schema") != STORE_SCHEMA_VERSION
                or doc.get("key") != key
                or not isinstance(doc.get("result"), dict)
            ):
                raise ValueError("invalid entry structure")
        except ValueError:
            logger.warning("dropping corrupted cache entry %s", path)
            self._corrupt.inc()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return doc["result"]

    def put(self, key: str, result: dict, kind: str = "", label: str = "") -> None:
        """Persist ``result`` under ``key`` atomically.

        Tolerates a concurrent writer racing the atomic rename (and a
        concurrent ``clear()`` removing the key-prefix directory between
        the ``mkdir`` and the ``mkstemp``): the write is retried once with
        the parent re-created; only a persistent I/O failure raises
        :class:`~repro.resilience.errors.StoreError` (``REPRO-E301``).
        Losing the race is fine — entries are content-addressed, so
        whichever writer wins stored the same bytes.
        """
        path = self._path(key)
        fault_point("store.put", label=key)
        doc = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "kind": kind,
            "label": label,
            "created_at": time.time(),
            "result": result,
        }
        if wants_corruption("store.put", label=key):
            # Fault harness: simulate a torn write — the entry lands on
            # disk as garbage and must be demoted to a miss by get().
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"\x00torn write\xff")
            return
        last_error: OSError | None = None
        text = json.dumps(doc, separators=(",", ":"), allow_nan=True)
        for attempt in range(2):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=path.parent, prefix=".tmp-", suffix=".json"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                last_error = None
                break
            except OSError as exc:
                # Another writer (or a concurrent clear) may have
                # removed the key-prefix directory out from under us.
                last_error = exc
                logger.debug(
                    "cache write attempt %d for %s failed (%s); retrying",
                    attempt + 1, path, exc,
                )
        if last_error is not None:
            raise StoreError(
                f"cannot persist cache entry {key[:12]}…: {last_error}",
                context={"key": key, "path": str(path)},
            ) from last_error
        self._bytes_written.inc(len(text))

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    # -- maintenance --------------------------------------------------------

    def clear(self) -> int:
        """Remove every entry of this schema version; return the count."""
        dropped = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                dropped += 1
            except OSError:
                continue
        return dropped

    def stats(self) -> StoreStats:
        """Walk the store and aggregate entry counts/sizes/kinds."""
        stats = StoreStats(
            path=str(self.root),
            schema=STORE_SCHEMA_VERSION,
            bytes_read=int(self._bytes_read.value),
            bytes_written=int(self._bytes_written.value),
        )
        now = time.time()
        oldest: float | None = None
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue
            stats.entries += 1
            stats.total_bytes += st.st_size
            if oldest is None or st.st_mtime < oldest:
                oldest = st.st_mtime
            kind = "?"
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                kind = doc.get("kind") or "?"
            except (ValueError, OSError):
                kind = "<corrupt>"
            stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        if oldest is not None:
            stats.oldest_age_s = max(0.0, now - oldest)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"
