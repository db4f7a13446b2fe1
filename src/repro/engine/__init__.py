"""``repro.engine`` — parallel batch execution with result memoization.

The engine turns every model/sim evaluation into a declarative,
hashable :class:`~repro.engine.job.Job`, executes batches on a
crash-isolated process pool (:mod:`repro.engine.pool`), and memoizes
results in a content-addressed on-disk store
(:mod:`repro.engine.store`, ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).

Typical use::

    from repro.engine import Engine
    from repro.model.whatif import WhatIfSweep

    engine = Engine(jobs=4)              # 4 worker processes + cache
    sweep = WhatIfSweep(machine)
    result = sweep.sweep(nest, engine=engine)   # parallel, memoized

Scaling layers on top of the core engine:

* :mod:`repro.engine.memcache` — an in-memory LRU tier in front of the
  store (two-tier cache; ``--mem-cache-mb``);
* :func:`~repro.engine.scheduler.make_engine` — the one factory that
  turns the CLI flags into an :class:`Engine` over one worker pool;
* :mod:`repro.engine.incremental` — source-digest manifests for
  ``--since-manifest`` plus the :class:`~repro.engine.incremental.ReuseReport`
  ``reuse`` block embedded in sweep/experiment summaries.

Consumers wired through the engine: ``WhatIfSweep.sweep``,
``ExperimentSuite.run_all``, ``repro.analysis.sensitivity.sensitivity``
and the ``repro sweep`` / ``repro experiments`` CLI commands (flags
``--jobs N`` / ``--mem-cache-mb`` / ``--no-cache``;
maintenance via ``repro cache {stats,clear}``).  See ``docs/ENGINE.md``.
"""

from repro.engine.job import (
    BUILTIN_RUNNERS,
    Job,
    JobError,
    register_runner,
    resolve_runner,
    run_job,
)
from repro.engine.keys import (
    KEY_SCHEMA_VERSION,
    canonical_json,
    canonical_key_value,
    nest_digest,
    stable_hash,
)
from repro.engine.incremental import (
    MANIFEST_SCHEMA_VERSION,
    Manifest,
    ReuseReport,
    default_manifest_path,
    reuse_from_outcomes,
)
from repro.engine.memcache import (
    DEFAULT_MEM_CACHE_MB,
    MemCache,
    MemCacheStats,
    shared_memcache,
)
from repro.engine.pool import JobOutcome, WorkerPool, cancelled_outcome
from repro.engine.scheduler import Engine, default_jobs, make_engine
from repro.engine.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreStats,
    default_cache_dir,
)

__all__ = [
    "BUILTIN_RUNNERS",
    "Job",
    "JobError",
    "register_runner",
    "resolve_runner",
    "run_job",
    "KEY_SCHEMA_VERSION",
    "canonical_json",
    "canonical_key_value",
    "nest_digest",
    "stable_hash",
    "JobOutcome",
    "cancelled_outcome",
    "WorkerPool",
    "Engine",
    "default_jobs",
    "make_engine",
    "MANIFEST_SCHEMA_VERSION",
    "Manifest",
    "ReuseReport",
    "default_manifest_path",
    "reuse_from_outcomes",
    "DEFAULT_MEM_CACHE_MB",
    "MemCache",
    "MemCacheStats",
    "shared_memcache",
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "StoreStats",
    "default_cache_dir",
]
