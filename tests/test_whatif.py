"""Unit tests for the what-if (threads × chunk) sweep."""

import pytest

from repro.kernels import build_linreg_nest
from repro.machine import paper_machine
from repro.model import WhatIfSweep
from tests.conftest import make_copy_nest


@pytest.fixture(scope="module")
def sweep():
    return WhatIfSweep(paper_machine(), predictor_runs=4)


class TestSweep:
    def test_grid_coverage(self, sweep):
        result = sweep.sweep(
            make_copy_nest(n=256), threads=(2, 4), chunks=(1, 2, 8)
        )
        assert len(result.points) == 6
        assert set(result.grid()) == {
            (t, c) for t in (2, 4) for c in (1, 2, 8)
        }

    def test_infeasible_points_skipped(self, sweep):
        result = sweep.sweep(
            make_copy_nest(n=16), threads=(2, 8), chunks=(1, 4, 16)
        )
        # chunk=16 infeasible at both; chunk=4 infeasible at T=8.
        assert (2, 16) not in result.grid()
        assert (8, 4) not in result.grid()
        assert (8, 1) in result.grid()

    def test_all_infeasible_raises(self, sweep):
        with pytest.raises(ValueError, match="no feasible"):
            sweep.sweep(make_copy_nest(n=4), threads=(8,), chunks=(16,))

    def test_best_avoids_fs_chunk(self, sweep):
        result = sweep.sweep(
            make_copy_nest(n=512), threads=(4,), chunks=(1, 8)
        )
        assert result.best_chunk_for(4).chunk == 8

    def test_fs_share_declines_with_chunk(self, sweep):
        result = sweep.sweep(
            build_linreg_nest(96, 16), threads=(4,), chunks=(1, 8)
        )
        grid = result.grid()
        assert grid[(4, 1)].fs_share > grid[(4, 8)].fs_share

    def test_full_model_mode_agrees(self):
        machine = paper_machine()
        fast = WhatIfSweep(machine, use_predictor=True, predictor_runs=8)
        slow = WhatIfSweep(machine, use_predictor=False)
        nest = make_copy_nest(n=256)
        f = fast.sweep(nest, threads=(4,), chunks=(1, 8))
        s = slow.sweep(nest, threads=(4,), chunks=(1, 8))
        for key in f.grid():
            assert f.grid()[key].fs_cases == pytest.approx(
                s.grid()[key].fs_cases, rel=0.1, abs=2
            )

    def test_rows_shape(self, sweep):
        result = sweep.sweep(make_copy_nest(n=64), threads=(2,), chunks=(1,))
        (row,) = result.to_rows()
        assert len(row) == 5

    def test_unknown_threads_query(self, sweep):
        result = sweep.sweep(make_copy_nest(n=64), threads=(2,), chunks=(1,))
        with pytest.raises(ValueError):
            result.best_chunk_for(16)
