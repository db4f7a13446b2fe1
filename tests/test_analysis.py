"""Unit tests for experiment drivers and report rendering (tiny scale)."""

import numpy as np
import pytest

from repro.analysis import (
    ExperimentResult,
    ExperimentSuite,
    PAPER_EXPECTATIONS,
    format_cell,
    render_all,
)
from repro.model import ols_fit


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(scale="tiny")


class TestFormatting:
    def test_format_cell(self):
        assert format_cell(1234567) == "1,234,567"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(0) == "0"
        assert format_cell("x") == "x"

    def test_result_rendering(self):
        r = ExperimentResult("Table X", "demo", ("a", "b"))
        r.add_row(1, 2.5)
        text = r.to_text()
        assert "Table X" in text and "2.5" in text
        md = r.to_markdown()
        assert md.startswith("### Table X")

    def test_row_arity_checked(self):
        r = ExperimentResult("T", "t", ("a", "b"))
        with pytest.raises(ValueError):
            r.add_row(1)

    def test_column_extraction(self):
        r = ExperimentResult("T", "t", ("a", "b"))
        r.add_row(1, 10)
        r.add_row(2, 20)
        assert r.column("b") == [10, 20]

    def test_render_all(self):
        r1 = ExperimentResult("A", "x", ("c",))
        r2 = ExperimentResult("B", "y", ("c",))
        out = render_all([r1, r2])
        assert "A: x" in out and "B: y" in out


class TestTableDrivers:
    def test_table1_shape_and_agreement(self, suite):
        """Paper claim: the modeled percentage is close to the measured
        one and essentially flat across thread counts."""
        res = suite.run_table1()
        assert res.columns[0] == "threads"
        assert len(res.rows) == len(suite.scale.threads)
        measured = res.column("measured FS %")
        modeled = res.column("modeled FS %")
        for m, mod in zip(measured, modeled):
            assert m > 0 and mod > 0
            assert abs(m - mod) < 20, f"model must track measurement ({m} vs {mod})"
        assert max(modeled) - min(modeled) < 10

    def test_table2_dft_heavier_than_heat(self, suite):
        heat = suite.run_table1()
        dft = suite.run_table2()
        assert max(heat.column("modeled FS %")) < max(dft.column("modeled FS %")) + 15

    def test_table2_dft_tracks_measurement(self, suite):
        """Paper claim: DFT has the heaviest FS of the three kernels,
        modeled close to measured, roughly flat across threads."""
        res = suite.run_table2()
        measured = res.column("measured FS %")
        modeled = res.column("modeled FS %")
        for m, mod in zip(measured, modeled):
            assert abs(m - mod) < 12, f"model must track measurement ({m} vs {mod})"
        assert min(modeled) > 15, "DFT is the FS-heaviest kernel"
        assert max(modeled) - min(modeled) < 10

    def test_table3_linreg_modeled_declines(self, suite):
        """Paper claim: for this outer-loop-parallel kernel the modeled
        percentage declines roughly as 1/threads (the total chunk-run
        count depends on the thread count) while the measured effect
        stays material."""
        res = suite.run_table3()
        threads = res.column("threads")
        measured = res.column("measured FS %")
        modeled = res.column("modeled FS %")
        assert modeled[-1] < modeled[0] * 0.75
        assert modeled[0] / modeled[-1] > threads[-1] / threads[0] * 0.3
        assert min(measured) > 10

    @staticmethod
    def _prediction_tracks_model(res, max_rel):
        """Tables IV-VI: the LR prediction is within ``max_rel`` of the
        full model's FS cases on every row."""
        for row in res.rows:
            pred_fs, model_fs = row[1], row[4]
            if model_fs:
                rel = abs(pred_fs - model_fs) / model_fs
                assert rel < max_rel, f"prediction off by {rel:.0%} at T={row[0]}"

    def test_table4_prediction_close_to_model(self, suite):
        """Paper claim: predictions from 20 chunk runs match the full
        model's counts and percentages closely."""
        res = suite.run_table4()
        self._prediction_tracks_model(res, 0.2)
        for row in res.rows:
            pred_pct, model_pct = row[3], row[6]
            assert abs(pred_pct - model_pct) < 8

    def test_table5_dft_prediction_close_to_model(self, suite):
        """Paper claim: the same for DFT from 50 chunk runs."""
        res = suite.run_table5()
        assert len(res.rows) == len(suite.scale.threads)
        self._prediction_tracks_model(res, 0.2)
        for row in res.rows:
            assert abs(row[3] - row[6]) < 8  # pred % vs model %

    def test_table6_runs(self, suite):
        """Paper claim: prediction from 10 chunk runs matches the full
        model, and both decline with the thread count (total work is
        M/num_threads)."""
        res = suite.run_table6()
        assert len(res.rows) == len(suite.scale.threads)
        model_fs = [row[4] for row in res.rows]
        assert model_fs[-1] < model_fs[0], "FS cases decline with threads"
        self._prediction_tracks_model(res, 0.25)


class TestFigureDrivers:
    def test_fig2_time_decreases(self, suite):
        """Paper claim: time falls as the chunk grows from 1 upward,
        then flattens."""
        res = suite.run_fig2()
        assert res.column("chunk")[0] == 1
        times = res.column("time (ms)")
        assert times[-1] < times[0], "larger chunks must beat chunk=1"
        # Flattening: the last step of the sweep changes time far less
        # than the first step away from chunk=1.
        assert abs(times[-2] - times[-1]) < times[0] - times[1]

    def test_fig6_linear(self, suite):
        """Paper claim: the cumulative FS count is linear in the
        chunk-run index, which justifies the regression predictor."""
        res = suite.run_fig6()
        assert any("R^2" in n for n in res.notes)
        series = res.column("cumulative FS cases")
        assert series == sorted(series)
        x = np.arange(1, len(series) + 1, dtype=float)
        fit = ols_fit(x, np.asarray(series, dtype=float))
        assert fit.r2 > 0.99, f"series must be linear, got R^2={fit.r2}"
        assert fit.a > 0

    def test_fig8_columns(self, suite):
        """Paper claim: measured, modeled and predicted coincide for the
        innermost-parallel heat kernel."""
        res = suite.run_fig8()
        assert res.columns == ("threads", "measured %", "modeled %", "predicted %")
        assert len(res.rows) == len(suite.scale.threads)
        for T, measured, modeled, predicted in res.rows:
            assert abs(modeled - predicted) < 6, (
                f"model and prediction must agree at T={T}"
            )
            assert abs(measured - modeled) < 20

    def test_fig9_dft_series_coincide(self, suite):
        """Paper claim: the same three series coincide for DFT."""
        res = suite.run_fig9()
        assert len(res.rows) == len(suite.scale.threads)
        for T, measured, modeled, predicted in res.rows:
            assert abs(modeled - predicted) < 6, (
                f"model and prediction must agree at T={T}"
            )
            assert abs(measured - modeled) < 12


class TestSuitePlumbing:
    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError):
            ExperimentSuite(scale="galactic")

    def test_expectations_cover_all_experiments(self, suite):
        ids = {
            "Fig. 2", "Fig. 6", "Table I", "Table II", "Table III",
            "Table IV", "Table V", "Table VI", "Fig. 8", "Fig. 9",
        }
        assert ids <= set(PAPER_EXPECTATIONS)


class TestSupplementaryDrivers:
    def test_victims_table(self, suite):
        res = suite.run_supp_victims()
        rows = {r[0]: r for r in res.rows}
        assert rows["heat"][1] == "b"
        assert rows["dft"][1] in ("out_re", "out_im")
        assert rows["linreg"][1] == "tid_args"

    def test_baseline_table(self, suite):
        res = suite.run_supp_baseline()
        for row in res.rows:
            _, rt_events, model_cases, pred_cases, rt_acc, pred_acc = row
            assert rt_events > 0 and model_cases > 0
            assert pred_acc < rt_acc

    def test_mitigation_table(self, suite):
        res = suite.run_supp_mitigation()
        assert len(res.rows) == 2
        for row in res.rows:
            assert row[3] < row[2]  # every fix must beat the baseline

    def test_supplementary_jobs_bundle(self, suite):
        """The runner's supplementary section: one engine job per
        driver, results in driver order."""
        from repro.analysis.experiments import SUPPLEMENTARY_DRIVERS
        from repro.engine import Engine

        jobs = suite.experiment_jobs(SUPPLEMENTARY_DRIVERS)
        docs = Engine(jobs=1, use_cache=False).run_strict(jobs)
        assert [ExperimentResult.from_dict(d).experiment for d in docs] == [
            "Supp. victims", "Supp. baseline", "Supp. mitigation"
        ]
