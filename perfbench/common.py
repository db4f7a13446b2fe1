"""Shared pieces of the benchmark: statistics, the timed loop, set-up
probes, memory sampling, provenance and the result line."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Everything a run writes (reports, span dumps, daemon state) lives here.
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7


def nproc() -> int:
    """CPUs this process may run on: the cap on workers and connections."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- statistics -----------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    xs = [float(v) for v in values]
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


#: The tail percentile, taken when at least ten samples lie beyond it.
TAIL_PCT = 80


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the :data:`TAIL_PCT` percentile when at
    least ten samples lie beyond it, else the maximum (percentile 100).
    A fixed percentile, rather than the highest one with ten samples
    beyond it, keeps a slower host's smaller sample on the same
    percentile."""
    xs = sorted(values)
    if len(xs) * (100 - TAIL_PCT) < 1000:
        return xs[-1], 100.0
    return statistics.quantiles(xs, n=100)[TAIL_PCT - 1], float(TAIL_PCT)


def tail_by_job(values: list[float], jobs: list) -> tuple[float, float]:
    """:func:`tail` over jobs that repeat: each job's time is its median
    over its repeats.  ``jobs[i]`` names the job ``values[i]`` timed."""
    by_job: dict = {}
    for job, value in zip(jobs, values):
        by_job.setdefault(job, []).append(value)
    return tail([statistics.median(v) for v in by_job.values()])


# -- host speed -----------------------------------------------------------------
#
# The benchmark shares a host whose speed swings by up to 1.8x, within
# seconds and per CPU (other tenants on the same cores; it is not steal
# time, so CPU time swings as much as wall time).  Every timed unit of
# work is therefore bracketed by a fixed calibration loop, run once on
# each CPU, and its time is scaled by REFERENCE_S over the mean of the
# calibrations nearest to it.  Measured on a 2-vCPU container: raw pass
# medians of the same sweep input moved by 2x between 25-second runs,
# while the scaled ones spread (interquartile range over ten seeds, as a
# share of the median) 4-7% on every workload.

#: Iterations of the calibration loop.
CAL_ITERS = 50_000
#: The calibration loop's time, in seconds, on the host every scaled
#: time is expressed on (a 2-vCPU container in its fast state).
REFERENCE_S = 0.035
#: A unit's scale averages the calibrations from this many before it to
#: this many after it.
CAL_WINDOW = 2


def _calibration_loop() -> float:
    """Fixed interpreter-bound work shaped like the simulator's inner
    loop — an LRU dict over a few thousand keys, probed by an LCG.
    Returns its wall time."""
    t0 = time.perf_counter()
    lru: dict[int, int] = {}
    x = 12345
    for _ in range(CAL_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 6000
        if key in lru:
            lru[key] = lru.pop(key) + 1
        else:
            lru[key] = 0
            if len(lru) > 4096:
                del lru[next(iter(lru))]
    return time.perf_counter() - t0


def calibrate(cpus: list[int]) -> float:
    """Mean calibration time over ``cpus``, the calling thread pinned to
    each in turn."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_calibration_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


@dataclass
class Timed:
    """One timed unit of work and the host-speed scale around it."""

    raw_s: float
    #: REFERENCE_S over the mean of the calibrations nearest the unit
    scale: float

    @property
    def s(self) -> float:
        return self.raw_s * self.scale


def timed_units(units: list, seconds: float = 0.0, count: int = 1,
                serial: bool = False) -> list[tuple[int, Timed]]:
    """Run ``units[i % len(units)]()`` for i = 0, 1, ... until ``count``
    have run and ``seconds`` have passed (so the last unit may overrun by
    up to one unit), with a calibration before the first and after each.
    A unit's raw time is what it returns, or else its wall time.

    Work that runs on every CPU is calibrated on every CPU.  ``serial``
    work runs pinned to one CPU and is calibrated there only: host
    slowdowns hit the CPUs independently.  Returns ``(unit index,
    Timed)`` in run order."""
    allowed = sorted(os.sched_getaffinity(0))
    cpus = [allowed[-1]] * len(allowed) if serial else allowed
    if serial:
        os.sched_setaffinity(0, {allowed[-1]})
    try:
        cals = [calibrate(cpus)]
        raws: list[tuple[int, float]] = []
        start = time.perf_counter()
        while len(raws) < count or time.perf_counter() - start < seconds:
            index = len(raws) % len(units)
            t0 = time.perf_counter()
            raw = units[index]()
            raws.append((index,
                         time.perf_counter() - t0 if raw is None else raw))
            cals.append(calibrate(cpus))
    finally:
        os.sched_setaffinity(0, allowed)
    # unit k ran between cals[k] and cals[k + 1]
    return [
        (index, Timed(raw, REFERENCE_S / statistics.fmean(
            cals[max(0, k + 1 - CAL_WINDOW):k + 1 + CAL_WINDOW])))
        for k, (index, raw) in enumerate(raws)
    ]


# -- set-up ---------------------------------------------------------------------


def program_env() -> dict:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def setup_probe(workload: str, seed: int) -> list[Timed]:
    """Time a fresh interpreter doing the workload's set-up — imports and
    input generation — ``SETUP_REPEATS`` times."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / 'src')!r}]; "
        f"import perfbench.{workload} as w; w.setup({int(seed)})"
    )

    def probe() -> None:
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=program_env(), cwd=ROOT, timeout=120)

    return [t for _, t in timed_units([probe], count=SETUP_REPEATS)]


# -- memory ---------------------------------------------------------------------


def _children_map() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rpartition(")")[2].split()[1])
        out.setdefault(ppid, []).append(int(entry))
    return out


def _tree_rss_bytes(root: int) -> int:
    children = _children_map()
    total, todo = 0, [root]
    page = os.sysconf("SC_PAGE_SIZE")
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * page
        except OSError:
            continue
    return total


class PeakRSS:
    """Peak summed resident memory of this process and its descendants,
    sampled from ``/proc`` by a background thread while the block runs."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            self.peak_bytes = max(self.peak_bytes, _tree_rss_bytes(pid))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "PeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mb(self) -> float:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return max(self.peak_bytes, own) / 2**20


# -- provenance and output ------------------------------------------------------


def git_commit() -> str | None:
    """The checkout's commit, or ``None`` outside a git work tree (git
    is kept from searching above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    why = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}
    return {
        "workload": workload,
        "why": why[workload],
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


#: Thread count of the accuracy probe behind ``model_error_pp`` on the
#: sweep and serve workloads.
PROBE_THREADS = 8


def chunk_probe(machine, nest, walls: dict[tuple[int, int], float]) -> float:
    """|modeled − measured| slowdown of chunk 1 against the largest
    chunk the landscape holds at :data:`PROBE_THREADS`, in percentage
    points.  ``walls`` maps (threads, chunk) to the answer's estimated
    wall cycles; the measured side comes from the MESI simulator, as the
    tables' measured columns do."""
    from repro.model import measured_fs_percent
    from repro.sim import MulticoreSimulator

    big = max(c for t, c in walls if t == PROBE_THREADS)
    modeled = measured_fs_percent(walls[(PROBE_THREADS, 1)],
                                  walls[(PROBE_THREADS, big)])
    sim = MulticoreSimulator(machine)
    measured = measured_fs_percent(
        sim.run(nest, PROBE_THREADS, chunk=1).cycles,
        sim.run(nest, PROBE_THREADS, chunk=big).cycles,
    )
    return abs(modeled - measured)


def dump_spans(workload: str, seed: int, spans: list[dict]) -> None:
    """Write a traced run's spans out at the end of the run."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    path.write_text(json.dumps(spans), encoding="utf-8")
    print(f"[perfbench] {len(spans)} spans -> {OUT_DIR.name}/{path.name}")


@dataclass
class Outcome:
    """What one run hands to :func:`emit`."""

    attempted: int = 0
    failed: int = 0
    #: name -> value; names and units come from BENCHMARK.json
    metrics: dict[str, float] = field(default_factory=dict)
    #: the detailed, human-readable report written beside the result
    report: dict = field(default_factory=dict)
    #: one line per wrong or failed output
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, cells: int = 1) -> None:
        self.failed += cells
        self.errors.append(message)


def emit(outcome: Outcome, prov: dict, trace: bool) -> None:
    """Write the full report and print the result as the last line."""
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"run produced no value for {missing}")
    metrics = {
        m["name"]: {"value": float(outcome.metrics[m["name"]]),
                    "unit": m["unit"]}
        for m in wanted
    }
    failed = min(outcome.failed, outcome.attempted)
    doc = {
        "provenance": prov,
        "attempted": outcome.attempted,
        "failed": failed,
        "failed_ratio": failed / max(outcome.attempted, 1),
        "errors": outcome.errors,
        **outcome.report,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{prov['workload']}-seed{prov['seed']}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    for line in outcome.errors[:20]:
        print(f"[perfbench] WRONG: {line}", file=sys.stderr)
    print(f"[perfbench] {prov['workload']} seed={prov['seed']} "
          f"nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} commit={prov['commit']}")
    print(f"[perfbench] why: {prov['why']}")
    print(f"[perfbench] cells attempted={outcome.attempted} failed={failed} "
          f"failed_ratio={doc['failed_ratio']:.4f}; report -> "
          f"{OUT_DIR.name}/{name}")
    print(json.dumps({
        "correct": failed == 0 and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
