"""Golden-value tests: exact FS counts pinned for the paper kernels.

The model is deterministic by design (a compile-time analysis must be).
These tests pin exact case counts at small sizes so any behavioural
change — a schedule tweak, a detector transition edit, a layout change —
is caught immediately rather than surfacing as a silent drift in
EXPERIMENTS.md.  If a change is *intended*, update the constants here
and the rationale in the commit that changes them.

The simulator ("measured" side) is pinned the same way: its event
counters and cycle totals, floats compared exactly, since a change in
the order cycles are summed in changes their last bits.
"""

import dataclasses

import pytest

from repro.kernels import dft, heat_diffusion, linear_regression, transpose
from repro.machine import paper_machine
from repro.model import FalseSharingModel
from repro.sim import MulticoreSimulator

#: (kernel factory, threads, chunk) -> expected exact FS case count.
GOLDEN = {
    ("heat", 2, 1): 1343,
    ("heat", 4, 1): 1343,
    ("heat", 4, 64): 23,
    ("dft", 2, 1): 5952,
    ("dft", 4, 1): 5952,
    ("dft", 4, 16): 0,
    ("linreg", 2, 1): 11496,
    ("linreg", 4, 1): 17208,
    ("linreg", 4, 10): 5,
    ("transpose", 4, 1): 0,
}

FACTORIES = {
    "heat": lambda: heat_diffusion(rows=5, cols=514),
    "dft": lambda: dft(samples=4, freqs=768),
    "linreg": lambda: linear_regression(4, tasks=96, total_points=480),
    "transpose": lambda: transpose(rows=8, cols=256),
}


@pytest.fixture(scope="module")
def model():
    return FalseSharingModel(paper_machine())


@pytest.mark.parametrize(
    "kernel,threads,chunk",
    sorted(GOLDEN),
    ids=[f"{k}-T{t}-c{c}" for k, t, c in sorted(GOLDEN)],
)
def test_golden_fs_counts(model, kernel, threads, chunk):
    nest = FACTORIES[kernel]().nest
    result = model.analyze(nest, threads, chunk=chunk)
    assert result.fs_cases == GOLDEN[(kernel, threads, chunk)], (
        f"{kernel} at T={threads}, chunk={chunk}: FS count drifted to "
        f"{result.fs_cases}"
    )


#: (kernel, chunk) at 4 threads -> (SimCounters fields in declaration
#: order, wall cycles, per-thread cycles).  The chunks are each kernel's
#: FS and non-FS chunk.
SIM_GOLDEN = {
    ("heat", 1): (
        (7680, 1536, 6395, 0, 1261, 17, 7, 0, 0, 193, 1343, 1343, 0, 0, 40),
        31951.5, [17815.5, 15905.5, 17185.5, 17027.5],
    ),
    ("heat", 64): (
        (7680, 1536, 7320, 1320, 280, 6, 74, 0, 0, 193, 23, 23, 0, 0, 34),
        26227.5, [12693.5, 13603.5, 13603.5, 13603.5],
    ),
    ("dft", 1): (
        (18432, 6144, 12280, 192, 188, 6, 6, 5952, 5952, 0, 0, 5952, 5952,
         0, 24),
        506112.00000000536,
        [467916.0000000047, 490240.00000000536, 490240.00000000536,
         490240.00000000536],
    ),
    ("dft", 16): (
        (18432, 6144, 18232, 6144, 0, 6, 194, 0, 0, 0, 0, 0, 0, 0, 24),
        322543.99999999977,
        [309551.99999999977, 309231.9999999997, 309231.9999999997,
         309231.9999999997],
    ),
    ("linreg", 1): (
        (149760, 57600, 129600, 40392, 2754, 0, 198, 17208, 17208, 0, 0,
         17208, 17208, 0, 146),
        894386.0000000581,
        [524879.999999991, 882090.0000000581, 882090.0000000581,
         527417.9999999919],
    ),
    ("linreg", 10): (
        (149760, 57600, 146803, 57595, 2912, 0, 40, 5, 5, 0, 0, 5, 5, 0, 60),
        215393.99999999243,
        [203183.99999999243, 176103.9999999943, 135435.9999999971,
         135191.9999999971],
    ),
}


@pytest.fixture(scope="module")
def sim():
    return MulticoreSimulator(paper_machine())


@pytest.mark.parametrize(
    "kernel,chunk", sorted(SIM_GOLDEN), ids=[f"{k}-c{c}" for k, c in sorted(SIM_GOLDEN)]
)
def test_golden_sim_results(sim, kernel, chunk):
    instance = FACTORIES[kernel]()
    assert chunk in (instance.fs_chunk, instance.nfs_chunk)
    counters, cycles, per_thread = SIM_GOLDEN[(kernel, chunk)]
    result = sim.run(instance.nest, 4, chunk=chunk)
    assert dataclasses.astuple(result.counters) == counters
    assert result.cycles == cycles
    assert result.per_thread_cycles.tolist() == per_thread
