"""The pre-walk proof that an analysis counts no FS case.

Soundness: whenever :func:`~repro.model.disjoint.lines_disjoint` holds,
the reference detector's full walk counts 0 FS cases, in both modes and
for any prefix.  Completeness where it must be: the FS-free points of
the benchmark sweep and the conftest nests are proved.  Invisibility: a
sweep point served from the proof equals the walked one, budgets
degrade it the same way, and the ``resilience.ladder`` span says why a
point skipped its walk.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import Loop, ParallelLoopNest, Schedule
from repro.kernels import (
    build_dft_nest,
    build_heat_nest,
    build_linreg_nest,
    build_transpose_nest,
    heat_diffusion,
)
from repro.machine import tiny_machine
from repro.model import FalseSharingModel
from repro.model.disjoint import lines_disjoint
from repro.model.ownership import OwnershipListGenerator
from repro.model.whatif import evaluate_point
from repro.obs import get_registry, get_tracer
from repro.resilience.budget import Budget
from repro.resilience.errors import ReproError
from repro.resilience.ladder import analyze_with_ladder

from tests.conftest import make_copy_nest, make_nested_nest


def _proved(machine, nest, threads, chunk, max_chunk_runs=None) -> bool:
    gen = OwnershipListGenerator(
        nest.with_chunk(chunk), threads, line_size=machine.line_size
    )
    spr = gen.iteration_space.steps_per_chunk_run
    max_steps = None if max_chunk_runs is None else max_chunk_runs * spr
    return lines_disjoint(gen, max_steps)


@st.composite
def _nests(draw):
    """Every kernel family at line-aligned and ragged sizes."""
    ragged = draw(st.booleans())
    family = draw(st.sampled_from(
        ["heat", "dft", "linreg", "transpose", "copy", "nested"]
    ))
    if family == "heat":
        cols = draw(st.sampled_from([18, 34, 66])) + (
            draw(st.integers(1, 7)) if ragged else 0
        )
        return build_heat_nest(draw(st.integers(3, 5)), cols)
    if family == "dft":
        freqs = draw(st.sampled_from([16, 32, 64])) + (
            draw(st.integers(1, 15)) if ragged else 0
        )
        return build_dft_nest(draw(st.integers(1, 3)), freqs)
    if family == "linreg":
        tasks = draw(st.sampled_from([16, 32, 64])) + (
            draw(st.integers(1, 15)) if ragged else 0
        )
        return build_linreg_nest(tasks, draw(st.integers(1, 4)))
    if family == "transpose":
        return build_transpose_nest(
            draw(st.integers(1, 4)),
            draw(st.sampled_from([8, 16, 32])) + (ragged and draw(st.integers(1, 7))),
        )
    if family == "copy":
        return make_copy_nest(
            draw(st.sampled_from([64, 128])) + (ragged and draw(st.integers(1, 63)))
        )
    return make_nested_nest(
        draw(st.integers(1, 4)),
        draw(st.sampled_from([16, 32, 40])) + (ragged and draw(st.integers(1, 7))),
    )


class TestSoundness:
    @given(
        nest=_nests(),
        threads=st.integers(2, 32),
        chunk=st.one_of(
            st.integers(1, 64), st.sampled_from([4, 8, 16, 24, 32, 64])
        ),
        mode=st.sampled_from(["invalidate", "literal"]),
        stack=st.sampled_from([8, 64, 8192]),
        prefix=st.one_of(st.none(), st.integers(1, 4)),
    )
    @settings(deadline=None)
    def test_proved_analyses_count_no_fs(
        self, nest, threads, chunk, mode, stack, prefix
    ):
        machine = tiny_machine(4, stack)
        if not _proved(machine, nest, threads, chunk, prefix):
            return
        r = FalseSharingModel(
            machine, mode=mode, engine="reference", steady_state=False
        ).analyze(nest, threads, chunk=chunk, max_chunk_runs=prefix)
        assert (r.fs_cases, r.fs_read_cases, r.fs_write_cases) == (0, 0, 0)

    def test_overlapping_points_are_not_proved(self, machine):
        # Chunk 1 puts neighbouring elements of one line on two threads.
        assert not _proved(machine, make_copy_nest(64), 2, 1)
        assert not _proved(machine, build_heat_nest(4, 66), 2, 8)

    def test_empty_walk_is_not_proved(self, machine):
        # An empty walk is free, and the predictor must see it sampled
        # nothing (REPRO-M103).
        assert not _proved(machine, _empty_nest(), 2, 8)


def _empty_nest() -> ParallelLoopNest:
    nest = make_nested_nest(4, 32, chunk=8)
    inner = nest.root.subloops()[0]
    return ParallelLoopNest(
        name="empty.j",
        root=Loop.create("i", 0, 0, [inner]),
        parallel_var="j",
        schedule=Schedule("static", 8),
    )


class TestCompleteness:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_conftest_nested_nest_line_aligned_rows(self, machine, threads):
        # One interval per outer iteration: over every row it would
        # cover the lines between rows.
        assert _proved(machine, make_nested_nest(4, 32), threads, 8)
        assert _proved(machine, make_nested_nest(4, 40), threads, 8)

    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_conftest_copy_nest_ragged_tail(self, machine, threads):
        assert _proved(machine, make_copy_nest(70), threads, 8)

    def test_every_fs_free_point_of_the_benchmark_sweep(self, machine):
        """Seed 0 of perfbench ``sweep``: the proof holds exactly on the
        points whose walk counts 0."""
        import repro.frontend as frontend
        from perfbench.sweep import CHUNKS, THREADS, make_sources

        model = FalseSharingModel(machine, steady_state=False)
        free = proved = 0
        for source in make_sources(0):
            for kernel in frontend.parse_c_source(source):
                nest = kernel.nest
                trip = nest.trip_counts()[nest.parallel_depth()]
                for t in THREADS:
                    for c in CHUNKS:
                        if c * t > trip:
                            continue
                        walked = model.analyze(nest, t, chunk=c).fs_cases
                        ok = _proved(machine, nest, t, c)
                        assert not ok or walked == 0, (nest.name, t, c)
                        free += walked == 0
                        proved += ok
        assert free == proved == 54


class TestServedPoints:
    """A proved point is the walked point, bit for bit."""

    @pytest.mark.parametrize("use_predictor", [False, True])
    @pytest.mark.parametrize("chunk", [1, 8])
    def test_equals_the_reference_walk(self, machine, use_predictor, chunk):
        nest = make_copy_nest(256)
        for engine_kwargs in ({}, {"steady_state": False}):
            served = evaluate_point(
                machine, nest, 4, chunk, use_predictor=use_predictor,
                **engine_kwargs,
            )
            walked = evaluate_point(
                machine, nest, 4, chunk, use_predictor=use_predictor,
                detector_engine="reference", steady_state=False,
            )
            assert served.to_dict() == walked.to_dict()

    @pytest.mark.parametrize("budget", [
        Budget(max_steps=20),      # exact over budget → regression
        Budget(max_steps=2),       # not even one chunk run → analytic
        Budget(max_state_bytes=64),
        Budget(max_steps=10_000),  # fits: no degradation
    ])
    @pytest.mark.parametrize("use_predictor", [False, True])
    def test_budgets_degrade_as_the_walk_does(
        self, machine, budget, use_predictor
    ):
        nest = make_copy_nest(256)
        assert _proved(machine, nest, 4, 8)
        served = evaluate_point(
            machine, nest, 4, 8, use_predictor=use_predictor, budget=budget
        )
        walked = evaluate_point(
            machine, nest, 4, 8, use_predictor=use_predictor, budget=budget,
            detector_engine="reference",
        )
        assert served.to_dict() == walked.to_dict()

    def test_budget_degradations_are_exercised(self, machine):
        point = evaluate_point(
            machine, make_copy_nest(256), 4, 8, use_predictor=False,
            budget=Budget(max_steps=20),
        )
        assert point.fidelity == "regression" and point.degraded

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_empty_loop_still_raises_m103(self, machine, engine):
        with pytest.raises(ReproError) as err:
            evaluate_point(
                machine, _empty_nest(), 2, 8, use_predictor=True,
                detector_engine=engine,
            )
        assert err.value.code == "REPRO-M103"


def _ladder_proof(machine, nest, threads, chunk, **model_kwargs):
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        analyze_with_ladder(
            machine, nest, threads, chunk=chunk, prefer="exact",
            model=FalseSharingModel(machine, **model_kwargs),
        )
        (ladder,) = [
            e for e in tracer.events() if e.name == "resilience.ladder"
        ]
    finally:
        tracer.disable()
        tracer.reset()
    return ladder.args["fs_proof"]


class TestObservability:
    def test_every_fs_proof_value(self, machine):
        copy = make_copy_nest(256)
        assert _ladder_proof(machine, copy, 4, 8) == "disjoint"
        assert _ladder_proof(machine, copy, 4, 1) == "overlap"
        assert (
            _ladder_proof(machine, copy, 4, 8, engine="reference") == "oracle"
        )
        heat = heat_diffusion(rows=3, cols=1026).nest
        assert _ladder_proof(tiny_machine(4, 64), heat, 4, 1) == "steady-state"

    def test_predictor_rung_reports_its_proof(self, machine):
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            analyze_with_ladder(
                machine, make_copy_nest(256), 4, chunk=8, prefer="regression"
            )
            (ladder,) = [
                e for e in tracer.events() if e.name == "resilience.ladder"
            ]
        finally:
            tracer.disable()
            tracer.reset()
        assert ladder.args["fs_proof"] == "disjoint"
        assert ladder.args["fidelity"] == "regression"

    def test_fs_free_points_counter(self, machine):
        registry = get_registry()
        registry.reset()
        nest = make_copy_nest(256)
        evaluate_point(machine, nest, 4, 8, use_predictor=False)
        evaluate_point(machine, nest, 4, 1, use_predictor=False)
        counter = registry.counter(
            "model_fs_free_points_total",
            "analyses proved free of false sharing without a walk",
        )
        assert counter.labels(kernel=nest.name).value == 1
        registry.reset()

    def test_proved_point_skips_the_walk(self, machine):
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            evaluate_point(machine, make_copy_nest(256), 4, 8, use_predictor=False)
            names = {e.name for e in tracer.events()}
        finally:
            tracer.disable()
            tracer.reset()
        assert "model.analyze" not in names
        assert "detector.process_block" not in names


def test_walk_reuses_the_proof_generator(machine, monkeypatch):
    """A point the proof cannot skip builds one ownership generator and
    checks its nest once, whether or not the caller passes the chunk."""
    import repro.model.fsmodel as fsmodel

    built, validated = [], []
    real_gen, real_validate = fsmodel.OwnershipListGenerator, fsmodel.validate_nest

    def counting_gen(*args, **kwargs):
        built.append(args)
        return real_gen(*args, **kwargs)

    def counting_validate(nest):
        validated.append(nest)
        return real_validate(nest)

    monkeypatch.setattr(fsmodel, "OwnershipListGenerator", counting_gen)
    monkeypatch.setattr(fsmodel, "validate_nest", counting_validate)
    nest = make_copy_nest(256)
    for use_predictor in (False, True):
        built.clear()
        validated.clear()
        evaluate_point(machine, nest, 4, 1, use_predictor=use_predictor)
        assert len(built) == len(validated) == 1
    for prefer in ("exact", "regression"):
        built.clear()
        validated.clear()
        analyze_with_ladder(machine, nest, 4, chunk=1, prefer=prefer)
        assert len(built) == len(validated) == 1

    model = FalseSharingModel(machine)
    built.clear()
    assert model.fs_proof(nest, 4, chunk=1) == "overlap"
    assert model.analyze(nest, 4, chunk=1).fs_cases > 0
    assert len(built) == 1
    # Other arguments walk a generator of their own.
    assert model.fs_proof(nest, 4, chunk=1) == "overlap"
    assert model.analyze(nest, 4, chunk=2).chunk == 2
    assert model.analyze(nest, 4, chunk=1).chunk == 1
    assert len(built) == 4
