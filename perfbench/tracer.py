"""Per-layer self time, measured from outside the program.

Every call into a layer opens a frame on :class:`Tracer`'s stack (see
:mod:`perfbench.hooks` for where the frames come from).  A frame's self
time is its duration minus the time of the frames opened inside it, so
summing self time by layer splits the traced wall time without double
counting.

Spans (name, start, end, parent, cell id, self time) are kept in memory
for every frame except the layers in :data:`FOLDED`: those are called
once per block or per cache entry — up to hundreds of thousands of
times in one pass — so their time counts in the layer totals and is
taken out of their caller's self time, but no span is kept.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Leaf layers called too often to keep one span each.
FOLDED = frozenset({"ownership", "detector", "store.get", "store.put"})

#: Layers reported in the share table, in pipeline order.
LAYERS = ("frontend", "ownership", "detector", "steadystate", "model",
          "regression", "costmodels", "sim", "engine", "store.get",
          "store.put", "cell")


class Tracer:
    """Frame stack plus per-layer totals and the recorded spans."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        #: time inside the outermost frame of each layer (inclusive)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        #: the cell id stamped on spans (a table row, sweep point or job)
        self.cell: str | None = None
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)

    def enter(self, layer: str, name: str | None = None) -> None:
        self._depth[layer] += 1
        if self._depth[layer] == 1:
            self.counts[f"{layer}.calls"] += 1
        span_id = None
        if layer not in FOLDED:
            span_id = len(self.spans)
            self.spans.append({})  # reserve the id; filled in on exit
        # [layer, name, start, child time, span id]
        self._stack.append([layer, name or layer, time.perf_counter(), 0.0,
                            span_id])

    def exit(self) -> None:
        end = time.perf_counter()
        layer, name, start, child, span_id = self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.incl_s[layer] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if span_id is not None:
            parent = next(
                (f[4] for f in reversed(self._stack) if f[4] is not None),
                None,
            )
            self.spans[span_id] = {
                "id": span_id, "name": name, "layer": layer,
                "start": start - self.t0, "end": end - self.t0,
                "parent": parent, "cell": self.cell,
                "self_s": dur - child,
            }

    def cell_span(self, cell: str):
        """A ``cell`` frame that stamps ``cell`` on every span inside it."""
        return _CellFrame(self, cell)


class _CellFrame:
    __slots__ = ("tracer", "cell", "outer")

    def __init__(self, tracer: Tracer, cell: str) -> None:
        self.tracer, self.cell, self.outer = tracer, cell, None

    def __enter__(self) -> None:
        self.outer, self.tracer.cell = self.tracer.cell, self.cell
        self.tracer.enter("cell", "cell")

    def __exit__(self, *exc) -> None:
        self.tracer.exit()
        self.tracer.cell = self.outer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The model/engine per-layer metrics BENCHMARK.json names."""
    s, c, incl = tracer.self_s, tracer.counts, tracer.incl_s
    runs = c["steadystate.runs_simulated"] + c["steadystate.runs_extrapolated"]
    jobs = c["engine.jobs"]
    return {
        "frontend.self_s": s["frontend"],
        "frontend.calls": c["frontend.calls"],
        "ownership.self_s": s["ownership"],
        "ownership.blocks": c["ownership.blocks"],
        "detector.self_s": s["detector"],
        "detector.blocks": c["detector.blocks"],
        "detector.accesses": c["detector.accesses"],
        "detector.accesses_per_s": (
            c["detector.accesses"] / s["detector"] if s["detector"] else 0.0
        ),
        "steadystate.self_s": s["steadystate"],
        "steadystate.runs_simulated": c["steadystate.runs_simulated"],
        "steadystate.runs_extrapolated": c["steadystate.runs_extrapolated"],
        "steadystate.extrapolated_ratio": (
            c["steadystate.runs_extrapolated"] / runs if runs else 0.0
        ),
        "model.analyze_s": incl["model"],
        "model.calls": c["model.calls"],
        "regression.self_s": s["regression"],
        "regression.calls": c["regression.calls"],
        "costmodels.self_s": s["costmodels"],
        "costmodels.calls": c["costmodels.calls"],
        "sim.self_s": s["sim"],
        "sim.calls": c["sim.calls"],
        "sim.accesses": c["sim.accesses"],
        "sim.accesses_per_s": (
            c["sim.accesses"] / incl["sim"] if incl["sim"] else 0.0
        ),
        "engine.self_s": s["engine"],
        "engine.jobs": jobs,
        "engine.hit_ratio": c["engine.hits"] / jobs if jobs else 0.0,
        "store.get_s": incl["store.get"],
        "store.put_s": incl["store.put"],
    }


def per_layer(tracer: Tracer, traced_s: float, untraced_s: float,
              **measured: float) -> dict[str, float]:
    """Every per-layer metric: the tracer's, the workload's own
    measurements, and 0 for layers this workload never reaches."""
    out = {
        "engine.pool_utilization": 0.0,
        "store.bytes_written": 0.0,
        "service.submit_ms": 0.0,
        "service.queue_wait_ms": 0.0,
        "service.stream_ms": 0.0,
        "service.cache_hit_ratio": 0.0,
        "service.rejections": 0.0,
    }
    out.update(layer_metrics(tracer))
    out.update(measured)
    out["trace.wall_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    print(f"[perfbench] tracing overhead: {traced_s:.3f} s traced vs "
          f"{untraced_s:.3f} s untraced ({traced_s - untraced_s:+.3f} s)")
    return out


def share_table(tracer: Tracer, wall_s: float, label: str) -> list[dict]:
    """Each layer's self time and share of the traced wall time, sorted
    by share; what no traced entry point covers is ``unattributed``."""
    rows = [
        {"layer": layer, "self_s": tracer.self_s[layer],
         "share": tracer.self_s[layer] / wall_s if wall_s else 0.0}
        for layer in LAYERS if tracer.self_s.get(layer)
    ]
    covered = sum(r["self_s"] for r in rows)
    rows.append({"layer": "unattributed", "self_s": wall_s - covered,
                 "share": (wall_s - covered) / wall_s if wall_s else 0.0})
    rows.sort(key=lambda r: -r["share"])
    print(f"[perfbench] {label}: per-layer self time of {wall_s:.3f} s "
          "traced wall")
    for r in rows:
        print(f"[perfbench]   {r['layer']:<14} {r['self_s']:10.4f} s "
              f"{100.0 * r['share']:6.2f}%")
    return rows
