"""Fast-engine contracts: the vectorized detector is bit-identical to
the scalar reference on every trace, including the streaming-eviction
regime, and the engine knob never leaks into cached identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernels import dft, heat_diffusion, linear_regression
from repro.machine import paper_machine, tiny_machine
from repro.model import (
    ENGINES,
    FalseSharingModel,
    FastFSDetector,
    FSDetector,
    make_detector,
)
from repro.model.fastdetect import MAX_FAST_THREADS, MIN_FAST_EVENTS
from repro.resilience.errors import ModelError

_SCALARS = (
    "fs_cases", "fs_read_cases", "fs_write_cases", "accesses", "misses",
    "invalidations", "downgrades", "evictions", "steps",
)


def _full_state(d: FSDetector):
    """Everything observable: counters, breakdowns, exact cache states,
    and the coherence directory for every resident line."""
    lines = sorted(
        {ln for t in range(d.num_threads) for ln, _ in d.cache_state(t)}
    )
    return (
        tuple(getattr(d.stats, n) for n in _SCALARS),
        dict(d.stats.fs_by_thread),
        dict(d.stats.fs_by_line),
        dict(d.stats.fs_by_pair),
        [d.cache_state(t) for t in range(d.num_threads)],
        [(ln, d.holders_of(ln), d.writers_of(ln)) for ln in lines],
    )


def _run_blocks(detector, blocks, writes, order):
    for mats in blocks:
        detector.process_block(mats, writes, thread_order=order)
    return _full_state(detector)


def _random_blocks(rng, T, refs, n_blocks, max_steps, streaming):
    """Either uniform-random line traffic (heavy invalidation churn) or
    a monotone streaming trace (the eviction fast-path regime)."""
    blocks, base = [], 0
    for _ in range(n_blocks):
        steps = int(rng.integers(1, max_steps + 1))
        mats = []
        for _t in range(T):
            if streaming:
                adv = (rng.random(steps * refs) < 0.2).cumsum()
                look = rng.integers(0, 5, size=steps * refs)
                m = np.maximum(base + adv - look, 0).reshape(steps, refs)
            else:
                m = rng.integers(0, 40, size=(steps, refs))
            mats.append(m.astype(np.int64))
        if streaming:
            base = int(max(m.max() for m in mats))
        blocks.append(tuple(mats))
    return blocks


class TestEngineResolution:
    def test_unknown_engine_rejected(self):
        for engine in ("turbo", "auto", "jit"):
            with pytest.raises(ModelError):
                make_detector(engine, 4, 16)

    def test_explicit_choice_honoured(self):
        # Outside the vectorized core's support the fast detector is
        # still what "fast" builds: it falls back block by block.
        assert isinstance(
            make_detector("fast", 4, 16, mode="literal"), FastFSDetector
        )
        assert isinstance(
            make_detector("fast", MAX_FAST_THREADS + 1, 16), FastFSDetector
        )

    def test_make_detector_classes(self):
        assert isinstance(make_detector("fast", 4, 16), FastFSDetector)
        ref = make_detector("reference", 4, 16)
        assert type(ref) is FSDetector

    def test_engines_constant(self):
        assert ENGINES == ("fast", "reference")

    def test_model_rejects_bad_engine(self):
        for engine in ("warp", "auto", "jit"):
            with pytest.raises(ModelError):
                FalseSharingModel(tiny_machine(), engine=engine)


class TestBlockEquivalence:
    """Property suite: FastFSDetector ≡ FSDetector on arbitrary traces."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 4),
        cap=st.sampled_from([4, 8, 32]),
        refs=st.integers(1, 3),
        streaming=st.booleans(),
        mode=st.sampled_from(["invalidate", "literal"]),
    )
    # Beyond the 63-bit holder masks: every block takes the fallback.
    @example(seed=7, T=MAX_FAST_THREADS + 1, cap=8, refs=2, streaming=True,
             mode="invalidate")
    @settings(max_examples=40, deadline=None)
    def test_random_trace_equivalence(
        self, seed, T, cap, refs, streaming, mode
    ):
        rng = np.random.default_rng(seed)
        writes = rng.random(refs) < 0.4
        order = list(range(T))
        rng.shuffle(order)
        blocks = _random_blocks(
            rng, T, refs, n_blocks=int(rng.integers(1, 4)),
            max_steps=120, streaming=streaming,
        )
        ref = _run_blocks(FSDetector(T, cap, mode), blocks, writes, order)
        fast = _run_blocks(
            FastFSDetector(T, cap, mode), blocks, writes, order
        )
        assert ref == fast

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_eviction_regime_equivalence(self, seed):
        """Streaming blocks sized to overflow the stack exercise the
        batched-eviction epilogue; the fast path must still match the
        reference bit for bit — including eviction counts and the
        post-block LRU order."""
        rng = np.random.default_rng(seed)
        T, cap, refs = 3, 16, 2
        writes = np.array([True, False])
        blocks = _random_blocks(
            rng, T, refs, n_blocks=4, max_steps=200, streaming=True
        )
        ref_d = FSDetector(T, cap)
        fast_d = FastFSDetector(T, cap)
        for mats in blocks:
            ref_d.process_block(mats, writes)
            fast_d.process_block(mats, writes)
            assert _full_state(ref_d) == _full_state(fast_d)
        assert ref_d.stats.evictions > 0  # the regime was actually hit

    def test_fast_path_engages_on_large_blocks(self):
        """A block well above MIN_FAST_EVENTS must take the vectorized
        core, not the scalar fallback."""
        rng = np.random.default_rng(7)
        d = FastFSDetector(4, 64)
        steps = MIN_FAST_EVENTS * 2
        mats = tuple(
            rng.integers(0, 30, size=(steps, 2)).astype(np.int64)
            for _ in range(4)
        )
        d.process_block(mats, np.array([True, False]))
        assert d.fast_blocks >= 1
        assert d.stats.accesses == 4 * steps * 2

    def test_single_access_api_still_scalar(self):
        """The inherited single-access API keeps working on the fast
        detector (it shares all underlying structures)."""
        d = FastFSDetector(2, 8)
        d.access(0, 5, True)
        fs = d.access(1, 5, True)
        assert fs == 1
        assert d.stats.fs_write_cases == 1

    def test_bad_thread_order_rejected(self):
        d = FastFSDetector(2, 8)
        mats = (np.zeros((4, 1), dtype=np.int64),) * 2
        with pytest.raises(ModelError):
            d.process_block(mats, np.array([True]), thread_order=[0, 0])


#: Every way to read or advance a detector's state besides a block.
_READERS = (
    "none", "cache_state", "holders_of", "writers_of", "stack_sizes",
    "state_fingerprint", "shift_lines", "access",
)


def _read(d: FSDetector, reader: str, mats) -> object:
    """Read (or advance) ``d`` through ``reader``; returns what it saw."""
    lines = sorted({int(x) for m in mats for x in m.ravel()})
    if reader == "cache_state":
        return [d.cache_state(t) for t in range(d.num_threads)]
    if reader in ("holders_of", "writers_of"):
        return [getattr(d, reader)(ln) for ln in lines]
    if reader == "stack_sizes":
        return d.stack_sizes()
    if reader == "state_fingerprint":
        return d.state_fingerprint()
    if reader == "shift_lines":
        d.shift_lines(rename=lambda ln: ln + 7)
        return d.state_fingerprint()
    if reader == "access":
        return [
            d.access(t, lines[(t * 3) % len(lines)], t % 2 == 0)
            for t in range(d.num_threads)
        ]
    return None


class TestDeferredWriteBack:
    """The fast core applies a block's final state only when something
    reads or advances the detector; every reader sees exactly the
    reference detector's state, after any block."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(2, 4),
        cap=st.sampled_from([8, 32, 4096]),
        refs=st.integers(1, 3),
        streaming=st.booleans(),
        readers=st.lists(st.sampled_from(_READERS), min_size=1, max_size=6),
    )
    @settings(deadline=None)
    def test_every_reader_sees_the_reference_state(
        self, seed, T, cap, refs, streaming, readers
    ):
        rng = np.random.default_rng(seed)
        writes = rng.random(refs) < 0.4
        blocks = _random_blocks(
            rng, T, refs, n_blocks=len(readers), max_steps=300,
            streaming=streaming,
        )
        ref_d = FSDetector(T, cap)
        fast_d = FastFSDetector(T, cap)
        for mats, reader in zip(blocks, readers):
            ref_d.process_block(mats, writes)
            fast_d.process_block(mats, writes)
            assert _read(fast_d, reader, mats) == _read(ref_d, reader, mats)
        assert _full_state(fast_d) == _full_state(ref_d)

    def test_write_back_waits_for_a_reader(self):
        rng = np.random.default_rng(3)
        d = FastFSDetector(4, 64)
        mats = tuple(
            rng.integers(0, 30, size=(MIN_FAST_EVENTS, 2)).astype(np.int64)
            for _ in range(4)
        )
        d.process_block(mats, np.array([True, False]))
        assert d.fast_blocks == 1
        assert d._pending is not None
        assert sum(len(s) for s in d._stacks) == 0  # nothing applied yet
        assert sum(d.stack_sizes()) > 0
        assert d._pending is None

    def test_split_block_applies_first_half_before_second(self):
        """A block ``_dispatch`` halves plans its second half against the
        first half's applied state."""
        # Each thread streams more new lines than its stack holds, so
        # only pieces of the block qualify, each evicting the lines the
        # piece before it inserted.
        T, cap, refs = 3, 100, 2
        writes = np.array([True, False])
        steps = 4 * MIN_FAST_EVENTS
        stream = np.repeat(np.arange(steps, dtype=np.int64)[:, None], refs, 1)
        mats = tuple(stream + t * 10**6 for t in range(T))
        ref_d = FSDetector(T, cap)
        fast_d = FastFSDetector(T, cap)
        ref_d.process_block(mats, writes)
        fast_d.process_block(mats, writes)
        assert fast_d.fast_blocks >= 2 and fast_d.stats.evictions > 0
        assert _full_state(fast_d) == _full_state(ref_d)


class TestModelLevelEquivalence:
    """engine="fast" and engine="reference" produce identical results
    through the full model, chunk-run series included."""

    @pytest.mark.parametrize(
        "kernel",
        [
            heat_diffusion(rows=6, cols=1026),
            dft(samples=4, freqs=768),
            linear_regression(4, tasks=96, total_points=480),
        ],
        ids=["heat", "dft", "linreg"],
    )
    def test_engines_bit_identical(self, kernel):
        machine = paper_machine()
        engines = ["reference", "fast"]
        results = {}
        for engine in engines:
            model = FalseSharingModel(
                machine, engine=engine, steady_state=False
            )
            results[engine] = model.analyze(
                kernel.nest, 4, chunk=1, record_series=True
            )
        ref = results["reference"]
        assert ref.engine == "reference"
        for engine in engines[1:]:
            other = results[engine]
            assert other.engine == engine
            assert ref.fs_cases == other.fs_cases
            assert ref.fs_read_cases == other.fs_read_cases
            assert ref.fs_write_cases == other.fs_write_cases
            for name in _SCALARS:
                assert getattr(ref.stats, name) == getattr(other.stats, name)
            assert dict(ref.stats.fs_by_line) == dict(other.stats.fs_by_line)
            assert dict(ref.stats.fs_by_pair) == dict(other.stats.fs_by_pair)
            assert ref.per_chunk_run.tolist() == other.per_chunk_run.tolist()

    def test_result_reports_resolved_engine(self):
        # The default is the fast detector on every trace size; the
        # reference runs only when pinned.
        machine = tiny_machine()
        k = heat_diffusion(rows=4, cols=258)
        r = FalseSharingModel(machine).analyze(k.nest, 4)
        assert r.engine == "fast"
        r2 = FalseSharingModel(machine, engine="reference").analyze(k.nest, 4)
        assert r2.engine == "reference"
        assert r.fs_cases == r2.fs_cases
