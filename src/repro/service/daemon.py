"""Daemon lifecycle: boot, serve, drain on SIGTERM/SIGINT, exit 0.

:func:`serve` is what ``repro-fs serve`` runs.  Boot order:

1. load tenants (``--tenants-file`` or the key-less ``public`` default),
2. build the shared :class:`~repro.engine.Engine` (its result store,
   ``--store-dir`` or ``$REPRO_CACHE_DIR``, is the one cross-tenant
   warm cache; ``--no-cache`` turns it off),
3. recover durable state — take the journal directory's writer lock
   (``--journal-dir``, default ``$REPRO_CACHE_DIR/journal``; a second
   daemon on a held directory exits 2 with ``REPRO-U001``) and replay
   the write-ahead journal (:meth:`JobQueue.recover`): unfinished jobs
   are re-admitted with their already-streamed rows restored at the
   same offsets, so a client resuming with ``?from=N`` sees every row
   exactly once, after a drain or a SIGKILL alike,
4. start the queue workers + supervisor (health flips ``starting →
   ready``) and the ``ThreadingHTTPServer`` (HTTP runs on a background
   thread; the main thread parks on a shutdown event).

Shutdown contract (the part ops scripts rely on): the **first**
SIGTERM or SIGINT flips the service into draining mode —

* ``/healthz`` reports ``draining`` and new submissions answer 503
  (``REPRO-E104``) with ``Retry-After``,
* streaming readers are released with an ``interrupted`` row,
* in-flight sweep batches run to completion; running jobs are then
  parked back into the queue (the journal already holds them),
* the journal is closed and its lock released,
* the process exits **0**.

A SIGKILL (or OOM kill, or power loss) skips all of that — which is
exactly what the journal exists for: the kernel drops the lock, and
the next boot replays the journal and resumes mid-sweep from the last
durable batch.  Crashes are *supposed* to be survivable; ``make
chaos-smoke`` proves it in a kill-9 loop.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass

from repro.engine import Engine, ResultStore, default_cache_dir
from repro.service.health import HealthMonitor
from repro.service.journal import Journal
from repro.service.queue import JobQueue
from repro.service.tenants import TenantRegistry
from repro.util import get_logger

__all__ = ["ServeConfig", "build_queue", "serve"]

logger = get_logger(__name__)


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro-fs serve`` needs to boot a daemon."""

    host: str = "127.0.0.1"
    port: int = 8377
    #: Engine worker processes (sweep cells run here).
    workers: int = 2
    #: Queue worker threads (jobs progressing concurrently).
    concurrency: int = 2
    batch_cells: int = 16
    tenants_file: str | None = None
    #: Result-store override; ``None`` = the shared default cache dir.
    store_dir: str | None = None
    use_cache: bool = True
    timeout_s: float | None = None
    #: Write-ahead journal directory (``None`` =
    #: ``default_cache_dir() / "journal"``): admissions/rows/terminal
    #: states are fsync'd before publication and replayed on boot.  One
    #: daemon per directory.
    journal_dir: str | None = None
    #: Worker-process crashes a single job may cause before it is
    #: quarantined with ``REPRO-E105`` (0 disables).
    quarantine_after: int = 3
    #: Queued-job ceiling before admission sheds with 503 ``REPRO-E106``
    #: (0 = unbounded).
    max_queue_depth: int = 0

    def tenants(self) -> TenantRegistry:
        if self.tenants_file:
            return TenantRegistry.from_file(self.tenants_file)
        return TenantRegistry.default()


def build_queue(config: ServeConfig) -> JobQueue:
    """Tenants + engine + journal + queue, wired but not yet started."""
    engine = Engine(
        jobs=config.workers,
        use_cache=config.use_cache,
        store=ResultStore(config.store_dir) if config.store_dir else None,
        timeout_s=config.timeout_s,
    )
    return JobQueue(
        config.tenants(),
        engine,
        Journal(config.journal_dir or default_cache_dir() / "journal"),
        concurrency=config.concurrency,
        batch_cells=config.batch_cells,
        health=HealthMonitor(),
        quarantine_after=config.quarantine_after,
        max_queue_depth=config.max_queue_depth,
    )


def serve(config: ServeConfig, ready=None, stop_event=None) -> int:
    """Run the daemon until a signal (or ``stop_event``) drains it.

    ``ready`` (optional callable) fires with the bound
    :class:`~repro.service.api.ServiceServer` once the socket is
    listening — tests use it to learn the ephemeral port.
    ``stop_event`` substitutes for the signal handlers when serving
    from a thread that cannot own them.  Returns the process exit code
    (0 for a clean drain).
    """
    from repro.service.api import make_server

    queue = build_queue(config)
    restored = queue.recover()
    if restored:
        logger.info("recovered %d journaled job(s) from %s",
                    restored, queue.journal.root)
    queue.start()  # health: starting → ready
    server = make_server(config.host, config.port, queue)
    host, port = server.server_address[:2]
    logger.info(
        "repro-fs service listening on %s:%d (%d tenant(s), "
        "%d engine worker(s), %d queue worker(s), journal %s)",
        host, port, len(queue.tenants), queue.engine.jobs,
        config.concurrency, queue.journal.root,
    )

    shutdown = stop_event if stop_event is not None else threading.Event()

    if stop_event is None and threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):  # noqa: ARG001 - signal API
            logger.info(
                "received %s: draining", signal.Signals(signum).name
            )
            shutdown.set()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    http_thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1},
        name="repro-svc-http", daemon=True,
    )
    http_thread.start()
    if ready is not None:
        ready(server)

    try:
        shutdown.wait()
    finally:
        # Drain: release streaming readers, stop accepting, finish
        # in-flight batches, park the rest in the journal, exit clean.
        server.draining.set()
        queue.drain()
        server.shutdown()
        http_thread.join(timeout=5.0)
        server.server_close()
        logger.info("drain complete; exiting 0")
    return 0
