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

The store, plus the engine's in-batch dedupe, is the only way a
result is reused.  A sweep cell's key folds in its nest's source
digest, the machine and the schedule, so a warm re-run — or a re-run
after editing one kernel — recomputes only the cells whose inputs
moved.  :class:`~repro.engine.incremental.ReuseReport` is the
``reuse`` block of sweep/experiment summaries that says where each
cell came from.

Consumers wired through the engine: ``WhatIfSweep.sweep``,
``ExperimentSuite.run_all``, ``repro.analysis.sensitivity.sensitivity``
and the ``repro sweep`` / ``repro experiments`` CLI commands (flags
``--jobs N`` / ``--no-cache``; maintenance via
``repro cache {stats,clear}``).  See ``docs/ENGINE.md``.
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
from repro.engine.incremental import ReuseReport, reuse_from_outcomes
from repro.engine.pool import JobOutcome, WorkerPool, cancelled_outcome
from repro.engine.scheduler import Engine, default_jobs
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
    "ReuseReport",
    "reuse_from_outcomes",
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "StoreStats",
    "default_cache_dir",
]

#: Former factory name, kept because ``perfbench/sweep.py`` calls
#: ``make_engine(jobs=..., store=...)``; it is :class:`Engine` itself.
make_engine = Engine
