"""The engine's unit of work: a declarative, hashable :class:`Job`.

A job is split into two halves:

* ``spec`` — plain JSON-able data that *identifies* the computation:
  the kernel-source digest, the canonical :class:`MachineConfig` key
  dict, the schedule/threads knobs, the model flavor.  The spec is the
  only input to the cache key (:meth:`Job.key`), so two jobs with equal
  specs are interchangeable and share one cached result.
* ``payload`` — picklable runtime objects (the actual ``MachineConfig``
  and ``ParallelLoopNest``) the worker needs to *run* the computation.
  The payload is deliberately excluded from the key: the spec must
  already pin its content (via digests/key dicts), and hashing live IR
  trees would make the key schema hostage to internal representation.

Job *kinds* name a runner function.  Runners live next to the code they
parallelize (``repro.model.whatif`` owns ``whatif.point``), registered
lazily through :data:`BUILTIN_RUNNERS` so worker processes import only
what a job actually needs.  Runners take a :class:`Job` and return a
JSON-able dict — that dict is what the store persists and what the
caller reconstructs domain objects from.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.engine.keys import KEY_SCHEMA_VERSION, stable_hash
from repro.resilience.errors import EngineError
from repro.resilience.faults import fault_point

__all__ = [
    "Job",
    "JobError",
    "register_runner",
    "resolve_runner",
    "run_job",
]


class JobError(EngineError):
    """A job failed in a way retries will not fix (unknown kind, bad spec).

    An :class:`~repro.resilience.errors.EngineError` (stable code
    ``REPRO-E101``, CLI exit 5); still a :class:`RuntimeError` through
    the taxonomy's MRO, so pre-taxonomy handlers keep working.
    """

    code = "REPRO-E101"  # registered in repro.resilience.errors


@dataclass(frozen=True)
class Job:
    """One declarative model/sim evaluation.

    ``label`` is a human-readable tag for logs, spans and failure
    messages; it does not participate in the key.
    """

    kind: str
    spec: Mapping[str, Any]
    payload: Mapping[str, Any] = field(default_factory=dict, compare=False)
    label: str = ""

    def key(self) -> str:
        """Content-addressed identity: SHA-256 over (schema, kind, spec)."""
        return stable_hash(
            {"schema": KEY_SCHEMA_VERSION, "kind": self.kind, "spec": self.spec}
        )

    def describe(self) -> str:
        return self.label or f"{self.kind}:{self.key()[:12]}"


# -- runner registry ---------------------------------------------------------

#: Job kinds shipped with the repo, resolved lazily as ``module:function``
#: so a worker process only imports the subsystem its job touches.
BUILTIN_RUNNERS: dict[str, str] = {
    "whatif.point": "repro.model.whatif:run_point_job",
    "experiment.driver": "repro.analysis.experiments:run_experiment_job",
    "sensitivity.output": "repro.analysis.sensitivity:run_output_job",
    # Test doubles (used by tests/test_engine.py to exercise crash
    # isolation, timeouts and retry without touching the model).
    "engine.test.echo": "repro.engine.job:_run_echo",
    "engine.test.fail": "repro.engine.job:_run_fail",
    "engine.test.sleep": "repro.engine.job:_run_sleep",
    "engine.test.crash": "repro.engine.job:_run_crash",
    "engine.test.flaky_crash": "repro.engine.job:_run_flaky_crash",
    "engine.test.pid": "repro.engine.job:_run_pid",
}

_RUNNERS: dict[str, Callable[[Job], dict]] = {}


def register_runner(
    kind: str, fn: Callable[[Job], dict] | None = None
) -> Callable:
    """Register ``fn`` as the runner for ``kind`` (also a decorator).

    Explicit registration wins over :data:`BUILTIN_RUNNERS`; third-party
    job kinds use this directly.
    """

    def _register(f: Callable[[Job], dict]) -> Callable[[Job], dict]:
        _RUNNERS[kind] = f
        return f

    return _register(fn) if fn is not None else _register


def resolve_runner(kind: str) -> Callable[[Job], dict]:
    """The runner callable for ``kind``, importing lazily if needed."""
    fn = _RUNNERS.get(kind)
    if fn is not None:
        return fn
    path = BUILTIN_RUNNERS.get(kind)
    if path is None:
        raise JobError(f"unknown job kind {kind!r}")
    mod_name, _, fn_name = path.partition(":")
    fn = getattr(importlib.import_module(mod_name), fn_name)
    _RUNNERS[kind] = fn
    return fn


def run_job(job: Job) -> dict:
    """Execute ``job`` in the current process and return its result dict.

    This is the function worker processes invoke; it must stay
    module-level (and importable as ``repro.engine.job.run_job``) so the
    :class:`~concurrent.futures.ProcessPoolExecutor` can pickle it by
    reference.

    ``fault_point("engine.job")`` fires *inside* the worker process for
    pooled runs — a ``crash`` action there exercises the pool's
    crash-isolation path exactly like a real segfault would.
    """
    fault_point("engine.job", label=job.describe())
    result = resolve_runner(job.kind)(job)
    if not isinstance(result, dict):
        raise JobError(
            f"runner for {job.kind!r} returned {type(result).__name__}, "
            "expected a JSON-able dict"
        )
    return result


# -- test-double runners -----------------------------------------------------


def _run_echo(job: Job) -> dict:
    """Return the spec's ``value`` (plus an attempt-independent marker)."""
    return {"value": job.spec.get("value"), "pid_dependent": False}


def _run_fail(job: Job) -> dict:
    raise RuntimeError(job.spec.get("message", "deterministic failure"))


def _run_sleep(job: Job) -> dict:
    import time

    time.sleep(float(job.spec["seconds"]))
    return {"slept": job.spec["seconds"]}


def _run_pid(job: Job) -> dict:
    """Report the pid of the process that ran the job, after sleeping
    ``seconds`` (so every worker of a pool takes one of a few jobs)."""
    import os
    import time

    time.sleep(float(job.spec.get("seconds", 0.0)))
    return {"pid": os.getpid()}


def _run_crash(job: Job) -> dict:
    """Die like a segfault: the interpreter exits without cleanup."""
    import os

    os._exit(int(job.spec.get("code", 137)))


def _run_flaky_crash(job: Job) -> dict:
    """Crash the worker until ``crashes`` attempts have happened.

    Cross-process state lives in a sentinel directory: each attempt
    creates one marker file, and the runner hard-exits while there are
    fewer markers than requested crashes.  Lets tests observe
    crash → retry → success end to end.
    """
    import os
    import uuid

    sentinel_dir = job.spec["sentinel_dir"]
    os.makedirs(sentinel_dir, exist_ok=True)
    attempts = len(os.listdir(sentinel_dir))
    with open(os.path.join(sentinel_dir, uuid.uuid4().hex), "w"):
        pass
    if attempts < int(job.spec.get("crashes", 1)):
        os._exit(139)
    return {"attempts_observed": attempts + 1}
