"""Steady-state early-exit contracts.

The exact steady-state mechanism (docs/PERFORMANCE.md) detects a
periodic regime in the chunk-run sequence, proves it via canonical
cache-state fingerprints, and closes the remaining runs by *exact*
extrapolation.  These tests pin the three claims that make it safe:

1. results with the early exit are bit-identical to the full
   simulation (counters, breakdowns, and the per-chunk-run series);
2. the shift-profile algebra (classify/shift/canon/rename) is
   self-consistent between its scalar and vectorized forms;
3. the ``exact-steady-state`` fidelity tag propagates — through the
   model result and the resilience ladder — and normalizes to the
   exact tier;
4. the gate in front of the runner declines only analyses on which the
   runner would extrapolate nothing, and the ``model.analyze`` span
   says why the runner did or did not run.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernels import dft, heat_diffusion, linear_regression
from repro.machine import paper_machine, tiny_machine
from repro.model import (
    FalseSharingModel,
    FSDetector,
    OwnershipListGenerator,
    SteadyStateRunner,
    compute_shift_profile,
    make_detector,
)
from repro.model.steadystate import steady_state_runner
from repro.obs import get_tracer
from repro.resilience.errors import ModelError
from repro.resilience.ladder import (
    analyze_with_ladder,
    fidelity_tier,
)
from tests.conftest import make_copy_nest, make_nested_nest

_SCALARS = (
    "fs_cases", "fs_read_cases", "fs_write_cases", "accesses", "misses",
    "invalidations", "downgrades", "evictions", "steps",
)

#: Cheap configs whose working set overflows the tiny machine's stack,
#: putting them in the streaming regime where the steady state appears
#: within a few detection windows.
_STEADY_KERNELS = [
    ("heat", heat_diffusion(rows=3, cols=1026)),
    ("dft", dft(samples=2, freqs=1024)),
]


def _result_state(r):
    s = r.stats
    return (
        tuple(getattr(s, n) for n in _SCALARS),
        dict(s.fs_by_thread),
        dict(s.fs_by_line),
        dict(s.fs_by_pair),
        None if r.per_chunk_run is None else r.per_chunk_run.tolist(),
    )


def _profile_for(kernel, threads, line_size=64):
    gen = OwnershipListGenerator(
        kernel.nest.with_chunk(1), threads, line_size=line_size
    )
    profile = compute_shift_profile(gen, threads)
    assert profile is not None
    return profile


class TestShiftProfile:
    def test_heat_profile_shape(self):
        profile = _profile_for(heat_diffusion(rows=3, cols=1026), 4)
        assert profile.period_runs >= 1
        assert profile.runs_per_exec >= 3 * profile.period_runs
        assert len(profile.array_names) == len(profile.line_shifts)
        # heat writes march through memory: some array must shift.
        assert any(d != 0 for d in profile.line_shifts)

    @given(
        lines=st.lists(st.integers(-8, 4096), min_size=1, max_size=64),
        boundary=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_and_vector_forms_agree(self, lines, boundary):
        """classify/shift_of/canon/renamer and their *_arrays twins are
        the same functions."""
        profile = _profile_for(heat_diffusion(rows=3, cols=1026), 4)
        arr = np.asarray(lines, dtype=np.int64)
        cls = profile.classify_arrays(arr)
        shf = profile.shift_of_arrays(arr)
        canon_v = profile.canon_arrays(boundary)(arr)
        rename_v = profile.renamer_arrays(boundary)(arr)
        canon_s = profile.canon(boundary)
        rename_s = profile.renamer(boundary)
        for i, ln in enumerate(lines):
            assert int(cls[i]) == profile.classify(ln)
            assert int(shf[i]) == profile.shift_of(ln)
            assert int(rename_v[i]) == rename_s(ln)
            key = canon_s(ln)
            if profile.classify(ln) < 0:
                assert (int(canon_v[0][i]), int(canon_v[1][i]))[1] == ln
            else:
                assert (int(canon_v[0][i]), int(canon_v[1][i])) == key

    def test_ineligible_nest_returns_none(self):
        """A ragged parallel trip (not a multiple of T×chunk) has no
        full-run translation structure."""
        k = heat_diffusion(rows=3, cols=1027)  # 1025 interior points
        gen = OwnershipListGenerator(k.nest.with_chunk(1), 4, line_size=64)
        assert compute_shift_profile(gen, 4) is None


class TestDetectorStateOps:
    """Fingerprint / rename primitives the runner is built on."""

    def _two_equal_detectors(self):
        a, b = FSDetector(2, 8), FSDetector(2, 8)
        for d in (a, b):
            for t, ln, w in [(0, 1, True), (1, 1, False), (0, 3, True)]:
                d.access(t, ln, w)
        return a, b

    def test_fingerprint_equality_and_divergence(self):
        a, b = self._two_equal_detectors()
        assert a.state_fingerprint() == b.state_fingerprint()
        b.access(1, 3, True)
        assert a.state_fingerprint() != b.state_fingerprint()

    def test_vector_fingerprint_consistent(self):
        profile = _profile_for(heat_diffusion(rows=3, cols=1026), 4)
        canon = profile.canon_arrays(2)
        a, b = self._two_equal_detectors()
        assert (
            a.state_fingerprint(canon_arrays=canon)
            == b.state_fingerprint(canon_arrays=canon)
        )
        b.access(0, 5, False)
        assert (
            a.state_fingerprint(canon_arrays=canon)
            != b.state_fingerprint(canon_arrays=canon)
        )

    def test_shift_lines_scalar_vector_equivalent(self):
        a, b = self._two_equal_detectors()
        a.shift_lines(rename=lambda ln: ln + 4)

        def rename_arrays(keys):
            return keys + 4

        b.shift_lines(rename_arrays=rename_arrays)
        for t in range(2):
            assert a.cache_state(t) == b.cache_state(t)
        for ln in (5, 7):
            assert a.holders_of(ln) == b.holders_of(ln)
            assert a.writers_of(ln) == b.writers_of(ln)
        assert a.state_fingerprint() == b.state_fingerprint()

    def test_shift_lines_requires_exactly_one_renamer(self):
        d = FSDetector(2, 8)
        with pytest.raises(ModelError):
            d.shift_lines()
        with pytest.raises(ModelError):
            d.shift_lines(rename=lambda ln: ln, rename_arrays=lambda k: k)

    def test_shift_lines_rejects_collisions(self):
        d = FSDetector(1, 8)
        d.access(0, 1, True)
        d.access(0, 2, True)
        with pytest.raises(ModelError):
            d.shift_lines(rename=lambda ln: 0)


class TestSteadyStateEquivalence:
    @pytest.mark.parametrize("name,kernel", _STEADY_KERNELS)
    @pytest.mark.parametrize("record_series", [False, True])
    def test_bit_identical_to_full_simulation(
        self, name, kernel, record_series
    ):
        machine = tiny_machine(4, 64)
        full = FalseSharingModel(machine, steady_state=False).analyze(
            kernel.nest, 4, chunk=1, record_series=record_series
        )
        steady = FalseSharingModel(machine, steady_state=True).analyze(
            kernel.nest, 4, chunk=1, record_series=record_series
        )
        assert _result_state(full) == _result_state(steady)
        # The mechanism must actually fire on these configs, otherwise
        # this test degenerates into comparing a path with itself.
        assert steady.runs_extrapolated > 0, name
        assert steady.fidelity == "exact-steady-state"
        assert full.fidelity == "exact"
        assert (
            steady.runs_simulated + steady.runs_extrapolated
            == steady.total_chunk_runs
        )

    def test_reference_engine_composes_with_steady_state(self):
        """steady_state rides on either detector engine."""
        machine = tiny_machine(4, 64)
        k = heat_diffusion(rows=3, cols=1026)
        fast = FalseSharingModel(
            machine, engine="fast", steady_state=True
        ).analyze(k.nest, 4, chunk=1)
        ref = FalseSharingModel(
            machine, engine="reference", steady_state=True
        ).analyze(k.nest, 4, chunk=1)
        assert _result_state(fast) == _result_state(ref)
        assert fast.runs_extrapolated == ref.runs_extrapolated > 0

    def test_small_kernel_stays_plain_exact(self):
        """Kernels without enough runs per exec never trigger the
        mechanism — they report plain "exact" with zero extrapolation."""
        machine = paper_machine()
        k = linear_regression(4, tasks=96, total_points=480)
        r = FalseSharingModel(machine, steady_state=True).analyze(
            k.nest, 4, chunk=4
        )
        assert r.runs_extrapolated == 0
        assert r.fidelity == "exact"

    def test_per_call_override(self):
        machine = tiny_machine(4, 64)
        k = heat_diffusion(rows=3, cols=1026)
        model = FalseSharingModel(machine, steady_state=True)
        r_off = model.analyze(k.nest, 4, chunk=1, steady_state=False)
        r_on = model.analyze(k.nest, 4, chunk=1)
        assert r_off.runs_extrapolated == 0
        assert r_on.runs_extrapolated > 0
        assert _result_state(r_off) == _result_state(r_on)

    def test_hits_counter_increments(self):
        from repro.obs import get_registry

        machine = tiny_machine(4, 64)
        k = dft(samples=2, freqs=1024)
        counter = get_registry().counter(
            "steadystate_hits_total",
            "periodicity detections that triggered exact extrapolation",
        ).labels(kernel=k.nest.name)
        before = counter.value
        r = FalseSharingModel(machine, steady_state=True).analyze(
            k.nest, 4, chunk=1
        )
        assert r.runs_extrapolated > 0
        assert counter.value > before


class TestFidelityPropagation:
    def test_fidelity_tier_normalization(self):
        assert fidelity_tier("exact") == "exact"
        assert fidelity_tier("exact-steady-state") == "exact"
        assert fidelity_tier("regression") == "regression"
        assert fidelity_tier("analytic") == "analytic"

    def test_ladder_passes_steady_state_tag_through(self):
        machine = tiny_machine(4, 64)
        k = heat_diffusion(rows=3, cols=1026)
        model = FalseSharingModel(machine, steady_state=True)
        outcome = analyze_with_ladder(
            machine, k.nest, 4, chunk=1, prefer="exact", model=model
        )
        assert outcome.fidelity == "exact-steady-state"
        assert fidelity_tier(outcome.fidelity) == "exact"
        assert not outcome.degraded
        assert outcome.detail.runs_extrapolated > 0


#: The gate's three machines: per-thread stacks of 16, 64 and 8,192 lines.
_GATE_MACHINES = {
    16: tiny_machine(4, 16),
    64: tiny_machine(4, 64),
    8192: paper_machine(),
}


@contextmanager
def _recorded_spans():
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        yield tracer
    finally:
        tracer.disable()
        tracer.reset()


def _traced_default(machine, nest, threads, chunk, **kwargs):
    """The default analysis, its ``steady_state`` span attribute, and
    whether a ``model.steadystate`` span was emitted."""
    with _recorded_spans() as tracer:
        r = FalseSharingModel(machine).analyze(
            nest, threads, chunk=chunk, **kwargs
        )
        events = tracer.events()
    (analyze,) = [e for e in events if e.name == "model.analyze"]
    ran = any(e.name == "model.steadystate" for e in events)
    return r, analyze.args["steady_state"], ran


def _gate(machine, nest, threads, chunk):
    gen = OwnershipListGenerator(
        nest.with_chunk(chunk), threads, line_size=machine.line_size
    )
    detector = make_detector("fast", threads, machine.model_stack_lines)
    return gen, detector, steady_state_runner(gen, detector)


@st.composite
def _gate_cases(draw):
    """A kernel, a schedule and a machine; most parallel trips are whole
    chunk runs, so the shift profile usually exists."""
    threads = draw(st.integers(2, 8))
    chunk = draw(st.integers(1, 8))
    trip = threads * chunk * draw(st.integers(1, 48))
    trip += draw(st.sampled_from([0, 0, 0, 1]))  # sometimes ragged
    family = draw(st.sampled_from(["heat", "dft", "copy", "nested"]))
    if family == "heat":
        nest = heat_diffusion(rows=draw(st.integers(3, 5)), cols=trip + 2).nest
    elif family == "dft":
        nest = dft(samples=draw(st.integers(1, 4)), freqs=trip).nest
    elif family == "copy":
        nest = make_copy_nest(n=trip)
    else:
        nest = make_nested_nest(rows=draw(st.integers(1, 4)), cols=trip)
    stack = draw(st.sampled_from(sorted(_GATE_MACHINES)))
    return _GATE_MACHINES[stack], nest, threads, chunk


class TestSteadyStateGate:
    @given(case=_gate_cases(), record_series=st.booleans())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_gate_never_declines_a_win(self, case, record_series):
        machine, nest, threads, chunk = case
        gen, detector, (runner, why) = _gate(machine, nest, threads, chunk)
        r, span_why, ran = _traced_default(
            machine, nest, threads, chunk, record_series=record_series
        )
        assert span_why == why
        assert ran == (runner is not None) == (why == "ran")
        if runner is not None:
            return
        assert r.runs_extrapolated == 0
        plain = FalseSharingModel(machine, steady_state=False).analyze(
            nest, threads, chunk=chunk, record_series=record_series
        )
        assert _result_state(r) == _result_state(plain)
        if why == "ineligible":
            return
        # The runner, built and run directly on a fresh detector,
        # extrapolates nothing either.
        profile = compute_shift_profile(gen, threads)
        direct = SteadyStateRunner(gen, detector, profile)
        if why == "no-eviction":
            # The proof holds from the earliest boundary the runner
            # could fingerprint, not only past its warm-up estimate.
            direct.first_attempt_window = 2
        _, extrapolated, _ = direct.run()
        assert extrapolated == 0

    @pytest.mark.parametrize(
        "kernel", [heat_diffusion(rows=8, cols=1026), dft(samples=8, freqs=768)]
    )
    def test_fitting_footprint_skips_the_runner(self, kernel):
        """Rule 1: on the paper machine the whole grid fits the 8,192-line
        stack, nothing is evicted, and the runner never starts."""
        machine = paper_machine()
        r, why, ran = _traced_default(machine, kernel.nest, 8, 1)
        assert why == "no-eviction"
        assert not ran
        assert r.runs_extrapolated == 0
        assert r.runs_simulated == r.total_chunk_runs

    @pytest.mark.parametrize(
        "machine,kernel,kwargs,expected",
        [
            (tiny_machine(4, 64), heat_diffusion(rows=3, cols=1026), {}, "ran"),
            (paper_machine(), dft(samples=2, freqs=1024), {}, "no-eviction"),
            # Rule 2: the warm-up horizon outlasts the 32-run execution.
            (tiny_machine(4, 64), heat_diffusion(rows=3, cols=130), {},
             "too-short"),
            (tiny_machine(4, 64), heat_diffusion(rows=3, cols=1027), {},
             "ineligible"),
            (tiny_machine(4, 64), heat_diffusion(rows=3, cols=1026),
             {"max_chunk_runs": 8}, "prefix"),
            (tiny_machine(4, 64), heat_diffusion(rows=3, cols=1026),
             {"steady_state": False}, "off"),
        ],
    )
    def test_span_says_why(self, machine, kernel, kwargs, expected):
        r, why, ran = _traced_default(machine, kernel.nest, 4, 1, **kwargs)
        assert why == expected
        assert ran == (expected == "ran")
        assert (r.runs_extrapolated > 0) == (expected == "ran")
