"""Where the tracer's frames come from: wrappers around the program's
public entry points, one set per layer.

:func:`instrument` replaces each entry point with a wrapper that opens a
:class:`~perfbench.tracer.Tracer` frame around the original call, and
returns the function that puts every original back.  Only in-process
work can be traced this way: a wrapped ``run_job`` cannot be pickled to
a worker process, so traced passes use an inline engine.
"""

from __future__ import annotations

import functools

from perfbench.tracer import Tracer


def _wrap(tracer: Tracer, fn, layer: str, name: str, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return wrapper


def _wrap_job(tracer: Tracer, fn):
    """An engine job is one cell: its spans carry the job's label."""

    @functools.wraps(fn)
    def wrapper(job):
        with tracer.cell_span(job.label):
            return fn(job)

    return wrapper


def _wrap_generator(tracer: Tracer, fn, layer: str, name: str):
    """Time each ``next()`` of a generator: the work happens there."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(layer, name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item

    return wrapper


def _count_ownership(counts, args, result) -> None:
    counts["ownership.blocks"] += 1


def _count_detector(counts, args, result) -> None:
    counts["detector.blocks"] += 1
    counts["detector.accesses"] += sum(m.size for m in args[1])


def _count_steady(counts, args, result) -> None:
    simulated, extrapolated, _ = result
    counts["steadystate.runs_simulated"] += simulated
    counts["steadystate.runs_extrapolated"] += extrapolated


def _count_sim(counts, args, result) -> None:
    counts["sim.accesses"] += result.counters.accesses


def _count_engine(counts, args, result) -> None:
    counts["engine.jobs"] += len(result)
    counts["engine.hits"] += sum(1 for o in result if o.from_cache)


def instrument(tracer: Tracer):
    """Wrap every layer's entry points; returns the undo function."""
    import repro.engine.pool as pool
    import repro.frontend as frontend
    import repro.model.cost as cost
    from repro.costmodels.total import TotalCostModel
    from repro.engine.scheduler import Engine
    from repro.engine.store import ResultStore
    from repro.model.detector import FSDetector
    from repro.model.fsmodel import FalseSharingModel
    from repro.model.ownership import OwnershipListGenerator
    from repro.model.regression import FalseSharingPredictor
    from repro.model.steadystate import SteadyStateRunner
    from repro.sim.executor import MulticoreSimulator

    # (owner, attribute, layer, span name, counter hook).  The steady-
    # state runner builds its blocks with ``lines_for_env`` rather than
    # ``blocks``, so both count as the ownership layer.
    targets = [
        (frontend, "parse_c_source", "frontend", "frontend.parse", None),
        (OwnershipListGenerator, "lines_for_env", "ownership",
         "ownership.lines", _count_ownership),
        (FSDetector, "process_block", "detector", "detector.process_block",
         _count_detector),
        (SteadyStateRunner, "run", "steadystate", "steadystate.run",
         _count_steady),
        (FalseSharingModel, "analyze", "model", "model.analyze", None),
        (FalseSharingPredictor, "predict", "regression",
         "regression.predict", None),
        (TotalCostModel, "breakdown", "costmodels", "costmodels.breakdown",
         None),
        (TotalCostModel, "total_cycles", "costmodels",
         "costmodels.total_cycles", None),
        (cost, "fs_overhead_percent", "costmodels",
         "costmodels.fs_overhead_percent", None),
        (MulticoreSimulator, "run", "sim", "sim.run", _count_sim),
        (Engine, "run", "engine", "engine.run", _count_engine),
        (ResultStore, "get", "store.get", "store.get", None),
        (ResultStore, "put", "store.put", "store.put", None),
    ]
    saved = []
    for owner, attr, layer, name, count in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, layer, name, count))
    saved.append((pool, "run_job", pool.run_job))
    pool.run_job = _wrap_job(tracer, pool.run_job)
    original = OwnershipListGenerator.__dict__["blocks"]
    saved.append((OwnershipListGenerator, "blocks", original))
    OwnershipListGenerator.blocks = _wrap_generator(
        tracer, original, "ownership", "ownership.blocks"
    )

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
