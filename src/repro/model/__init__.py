"""The paper's contribution: the compile-time false-sharing cost model.

Pipeline (Section III):

1. array references — delivered by the frontend/builders on the nest;
2. :mod:`~repro.model.ownership` — cache line ownership lists per thread;
3. per-thread LRU cache states, kept by the detector of step 4 (stack
   distances, their oracle, in :mod:`~repro.model.stackdist`);
4. :mod:`~repro.model.detector` — φ/mask 1-to-All FS counting;
plus :mod:`~repro.model.regression` (the linear-regression FS predictor)
and :mod:`~repro.model.cost` (Eq. 1 integration / Eq. 5 percentages).

Performance machinery (docs/PERFORMANCE.md): step 4 runs on one fast
detector, the vectorized NumPy twin in :mod:`~repro.model.fastdetect`
(``engine="fast"``, the default).  An exact steady-state early exit
(:mod:`~repro.model.steadystate`) closes periodic loops.  Both are
bit-identical to the scalar reference detector (``engine="reference"``),
the oracle every equivalence suite compares against.
"""

from repro.model.cost import (
    FSOverheadReport,
    fs_cycles,
    fs_overhead_percent,
    measured_fs_percent,
    predicted_fs_percent,
)
from repro.model.detector import FSDetector, FSStats
from repro.model.diagnostics import FSDiagnostics, HotLine, diagnose
from repro.model.fastdetect import ENGINES, FastFSDetector, make_detector
from repro.model.fsmodel import (
    FalseSharingModel,
    FSCycleRate,
    FSModelResult,
    VictimArray,
)
from repro.model.ownership import OwnershipBlock, OwnershipListGenerator
from repro.model.regression import (
    FalseSharingPredictor,
    FSPrediction,
    LinearFit,
    ols_fit,
    paper_fit,
)
from repro.model.schedule import (
    IterationSpace,
    LockstepEnumerator,
    effective_chunk,
    static_chunk_positions,
)
from repro.model.stackdist import (
    DistanceHistogram,
    MODIFIED,
    SHARED,
    StackDistanceAnalyzer,
)
from repro.model.steadystate import (
    ShiftProfile,
    SteadyStateRunner,
    compute_shift_profile,
)
from repro.model.whatif import SweepPoint, SweepResult, WhatIfSweep

__all__ = [
    "FSOverheadReport",
    "fs_cycles",
    "fs_overhead_percent",
    "measured_fs_percent",
    "predicted_fs_percent",
    "FSDetector",
    "FSStats",
    "FSDiagnostics",
    "HotLine",
    "diagnose",
    "ENGINES",
    "FastFSDetector",
    "make_detector",
    "ShiftProfile",
    "SteadyStateRunner",
    "compute_shift_profile",
    "FalseSharingModel",
    "FSCycleRate",
    "FSModelResult",
    "VictimArray",
    "OwnershipBlock",
    "OwnershipListGenerator",
    "FalseSharingPredictor",
    "FSPrediction",
    "LinearFit",
    "ols_fit",
    "paper_fit",
    "IterationSpace",
    "LockstepEnumerator",
    "effective_chunk",
    "static_chunk_positions",
    "DistanceHistogram",
    "MODIFIED",
    "SHARED",
    "StackDistanceAnalyzer",
    "SweepPoint",
    "SweepResult",
    "WhatIfSweep",
]
