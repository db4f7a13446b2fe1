"""Unit and property tests for static scheduling and lockstep enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.schedule import (
    IterationSpace,
    LockstepEnumerator,
    effective_chunk,
    static_chunk_positions,
)
from tests.conftest import make_copy_nest, make_nested_nest


class TestStaticChunkPositions:
    def test_round_robin_chunk1(self):
        assert static_chunk_positions(8, 2, 1, 0).tolist() == [0, 2, 4, 6]
        assert static_chunk_positions(8, 2, 1, 1).tolist() == [1, 3, 5, 7]

    def test_round_robin_chunk2(self):
        assert static_chunk_positions(10, 2, 2, 0).tolist() == [0, 1, 4, 5, 8, 9]
        assert static_chunk_positions(10, 2, 2, 1).tolist() == [2, 3, 6, 7]

    def test_thread_without_work(self):
        # chunk covers the whole trip: later threads get nothing.
        assert static_chunk_positions(4, 4, 4, 1).tolist() == []

    def test_empty_trip(self):
        assert static_chunk_positions(0, 4, 2, 0).tolist() == []

    def test_bad_args(self):
        with pytest.raises(ValueError):
            static_chunk_positions(4, 0, 1, 0)
        with pytest.raises(ValueError):
            static_chunk_positions(4, 2, 1, 5)

    @given(
        trip=st.integers(0, 300),
        threads=st.integers(1, 16),
        chunk=st.integers(1, 32),
    )
    @settings(max_examples=60)
    def test_partition_property(self, trip, threads, chunk):
        """Threads partition [0, trip) exactly: no loss, no overlap."""
        seen = []
        for t in range(threads):
            pos = static_chunk_positions(trip, threads, chunk, t)
            assert (np.diff(pos) > 0).all() if len(pos) > 1 else True
            seen.extend(pos.tolist())
        assert sorted(seen) == list(range(trip))


class TestEffectiveChunk:
    def test_explicit(self):
        assert effective_chunk(make_copy_nest(chunk=4), 2) == 4

    def test_default_blocks(self):
        nest = make_copy_nest(n=64).with_chunk(None)
        assert effective_chunk(nest, 4) == 16


class TestIterationSpace:
    def test_flat_nest(self):
        space = IterationSpace.of(make_copy_nest(n=64, chunk=1), 4)
        assert space.outer_total == 1
        assert space.parallel_trip == 64
        assert space.inner_total == 1
        assert space.steps_per_thread == 16
        assert space.total_chunk_runs == 16
        assert space.steps_per_chunk_run == 1

    def test_inner_parallel_nest(self):
        space = IterationSpace.of(make_nested_nest(rows=4, cols=32, chunk=2), 4)
        assert space.outer_total == 4
        assert space.parallel_trip == 32
        assert space.inner_total == 1
        # per outer run: 32/(4*2)=4 chunk runs -> 16 total
        assert space.total_chunk_runs == 16
        assert space.steps_per_chunk_run == 2


class TestLockstepEnumerator:
    def test_covers_iteration_space(self):
        nest = make_nested_nest(rows=3, cols=8, chunk=1)
        enum = LockstepEnumerator(nest, 2)
        points = set()
        for t in range(2):
            env = enum.env_block(t, 0, enum.thread_steps(t))
            for i, j in zip(env["i"].tolist(), env["j"].tolist()):
                points.add((i, j))
        assert points == {(i, j) for i in range(3) for j in range(8)}

    def test_thread_owns_round_robin_columns(self):
        nest = make_nested_nest(rows=1, cols=8, chunk=1)
        enum = LockstepEnumerator(nest, 4)
        env = enum.env_block(1, 0, enum.thread_steps(1))
        assert env["j"].tolist() == [1, 5]

    def test_outer_loop_sequences_after_parallel(self):
        nest = make_nested_nest(rows=2, cols=4, chunk=1)
        enum = LockstepEnumerator(nest, 2)
        env = enum.env_block(0, 0, enum.thread_steps(0))
        # Thread 0: (i=0, j=0), (i=0, j=2), (i=1, j=0), (i=1, j=2)
        assert env["i"].tolist() == [0, 0, 1, 1]
        assert env["j"].tolist() == [0, 2, 0, 2]

    def test_blocks_concatenate_to_full(self):
        nest = make_copy_nest(n=64, chunk=1)
        enum = LockstepEnumerator(nest, 2, block_steps=5)
        collected = {t: [] for t in range(2)}
        for start, envs in enum.blocks():
            for t, env in enumerate(envs):
                if env:
                    collected[t].extend(env["i"].tolist())
        full = enum.env_block(0, 0, enum.thread_steps(0))["i"].tolist()
        assert collected[0] == full

    def test_max_steps_truncation(self):
        nest = make_copy_nest(n=64, chunk=1)
        enum = LockstepEnumerator(nest, 2)
        steps = sum(
            len(envs[0]["i"]) for _, envs in enum.blocks(max_steps=7) if envs[0]
        )
        assert steps == 7

    @pytest.mark.parametrize("block_steps", [0, -3])
    @pytest.mark.parametrize("consumer", ["simulator", "model", "ownership"])
    def test_nonpositive_block_steps_rejected(self, consumer, block_steps):
        """A block that never advances would walk forever: every consumer
        of the enumerator refuses it up front."""
        from repro.machine import paper_machine
        from repro.model import FalseSharingModel, OwnershipListGenerator
        from repro.sim import MulticoreSimulator

        nest = make_copy_nest(n=64)
        machine = paper_machine()
        calls = {
            "simulator": lambda: MulticoreSimulator(
                machine, block_steps=block_steps
            ).run(nest, 2),
            "model": lambda: FalseSharingModel(
                machine, block_steps=block_steps, steady_state=False
            ).analyze(nest, 2),
            "ownership": lambda: OwnershipListGenerator(
                nest, 2, line_size=64, block_steps=block_steps
            ),
        }
        with pytest.raises(ValueError, match=f"block_steps .*{block_steps}"):
            calls[consumer]()

    def test_empty_env_beyond_work(self):
        nest = make_copy_nest(n=4, chunk=4)
        enum = LockstepEnumerator(nest, 4)
        # thread 1 has no work at all (chunk covers trip)
        assert enum.env_block(1, 0, 10) == {}

    def test_loop_lower_bound_and_step_respected(self):
        from repro.kernels import build_heat_nest

        nest = build_heat_nest(4, 20, chunk=1)
        enum = LockstepEnumerator(nest, 2)
        env = enum.env_block(0, 0, 5)
        assert env["i"][0] == 1  # starts at 1
        assert env["j"][0] == 1
