"""Unit tests for the EXPERIMENTS.md builder and deviation notes."""

from repro.analysis.paper import PAPER_EXPECTATIONS, deviations_section
from repro.analysis.report import ExperimentResult
from repro.analysis.runner import build_markdown


def fake_results():
    r1 = ExperimentResult("Table I", "demo table", ("threads", "pct"))
    r1.add_row(2, 10.0)
    r1.add_row(4, 11.0)
    r2 = ExperimentResult("Fig. 6", "demo figure", ("x", "y"))
    r2.add_row(1, 5)
    return [r1, r2]


class TestBuildMarkdown:
    def test_contains_tables_and_expectations(self):
        doc = build_markdown(fake_results())
        assert "### Table I: demo table" in doc
        assert PAPER_EXPECTATIONS["Table I"] in doc
        assert PAPER_EXPECTATIONS["Fig. 6"] in doc

    def test_contains_deviations(self):
        doc = build_markdown(fake_results())
        assert "Known deviations" in doc
        assert "simulator" in doc

    def test_markdown_table_syntax(self):
        doc = build_markdown(fake_results())
        assert "| threads | pct |" in doc
        assert "|---:|---:|" in doc


class TestDeviations:
    def test_lists_all_six(self):
        text = deviations_section()
        for k in range(1, 7):
            assert f"{k}. **" in text


class TestRunnerMain:
    KIND = "runner.test.driver"

    @classmethod
    def _fake_suite(cls, monkeypatch, fail_driver: str | None = None):
        """Stub the suite with two named drivers to keep main() fast.

        The stub's drivers are engine jobs of a test kind, so main()
        evaluates them through the same ``Engine.run`` as the real ones.
        """
        import repro.analysis.runner as runner
        import repro.engine.job as job_module
        from repro.engine import Job, register_runner

        results = {"run_table1": fake_results()[0], "run_fig6": fake_results()[1]}

        def run_driver_job(job):
            name = job.spec["driver"]
            if name == fail_driver:
                raise RuntimeError("boom")
            return results[name].to_dict()

        monkeypatch.setattr(job_module, "_RUNNERS", dict(job_module._RUNNERS))
        register_runner(cls.KIND, run_driver_job)

        class FakeSuite:
            def __init__(self, scale):
                assert scale in ("tiny", "full")

            def experiment_jobs(self, drivers):
                return [Job(cls.KIND, {"driver": name}) for name in drivers]

        monkeypatch.setattr(runner, "ExperimentSuite", FakeSuite)
        monkeypatch.setattr(runner, "DRIVER_ORDER", ("run_table1", "run_fig6"))
        monkeypatch.setattr(runner, "SUPPLEMENTARY_DRIVERS", ())
        return runner

    def test_writes_file(self, tmp_path, monkeypatch, capsys):
        runner = self._fake_suite(monkeypatch)
        out = tmp_path / "EXP.md"
        assert runner.main([str(out), "--no-cache"]) == 0
        assert "Table I" in out.read_text()
        # Per-experiment wall times are reported as the run goes, and
        # the reuse line is printed on uncached runs too.
        stdout = capsys.readouterr().out
        assert "[runner] run_table1" in stdout
        assert "[runner] reuse: 0% reused (disk 0 / dedupe 0) of 2 cells" in stdout

    def test_failing_driver_exits_nonzero_but_writes_rest(
        self, tmp_path, monkeypatch, capsys
    ):
        runner = self._fake_suite(monkeypatch, fail_driver="run_table1")
        out = tmp_path / "EXP.md"
        assert runner.main([str(out), "--no-cache"]) == 1
        text = out.read_text()
        assert "Fig. 6" in text  # the healthy driver still made the doc
        assert "### Table I" not in text
        assert "boom" in capsys.readouterr().err

