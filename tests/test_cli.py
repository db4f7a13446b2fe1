"""Unit tests for the repro-fs command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.engine import Job, ResultStore
from repro.kernels import heat_source, linreg_source


@pytest.fixture
def heat_file(tmp_path):
    p = tmp_path / "heat.c"
    p.write_text(heat_source(6, 130))
    return str(p)


@pytest.fixture
def linreg_file(tmp_path):
    p = tmp_path / "linreg.c"
    p.write_text(linreg_source(16, 8))
    return str(p)


_BATCH = ("--jobs", "--no-cache", "--keep-going", "--fail-fast",
          "--max-failure-rate")
_BUDGET = ("--deadline", "--max-iters")
_MODEL = ("--mode",)
#: Detector switches no entry point takes: every command runs the fast
#: detector with the exact steady-state exit.
_DETECTOR = ("--engine", "--no-steady-state")
_FLAG_VALUES = {
    "--jobs": ("2",), "--max-failure-rate": ("0.5",), "--deadline": ("1",),
    "--max-iters": ("10",), "--engine": ("fast",), "--mode": ("literal",),
    "--chunk": ("2",),
}

#: (subcommand, flag) pairs whose flag the subcommand never reads, so
#: the parser rejects it instead of silently ignoring it.
UNREAD_FLAGS = [
    *((cmd, flag)
      for cmd in ("analyze", "predict", "optimize", "diagnose", "trace",
                  "profile")
      for flag in _BATCH),
    *((cmd, flag)
      for cmd in ("diagnose", "optimize", "trace", "experiments")
      for flag in _BUDGET),
    *((cmd, flag) for cmd in ("optimize", "trace") for flag in _MODEL),
    *((cmd, flag)
      for cmd in ("analyze", "predict", "optimize", "diagnose", "trace",
                  "profile", "sweep", "experiments", "runner")
      for flag in _DETECTOR),
    ("optimize", "--chunk"),
]

#: Count flags given a value that is not an integer >= 1: each must stop
#: in argparse with exit 2, before any file is read or cell evaluated.
BAD_COUNTS = [
    ["analyze", "f.c", "-t", "0"],
    ["analyze", "f.c", "-c", "0"],
    ["analyze", "f.c", "--cores", "0"],
    ["predict", "f.c", "--runs", "0"],
    ["optimize", "f.c", "--runs", "-1"],
    ["sweep", "f.c", "--threads-list", "a"],
    ["sweep", "f.c", "--threads-list", "0"],
    ["sweep", "f.c", "--chunks-list", "1,0"],
    ["sweep", "f.c", "--jobs", "-3"],
    ["experiments", "-j", "0"],
    ["trace", "f.c", "--max-steps", "-5"],
    ["runner", "out.md", "--jobs", "0"],
]


def _parse(argv: list[str]):
    """Parse one command line: ``runner ...`` with the EXPERIMENTS.md
    runner's parser, anything else with the ``repro-fs`` parser."""
    if argv[0] == "runner":
        from repro.analysis.runner import _parse_args

        return _parse_args(argv[1:])
    return build_parser().parse_args(argv)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "f.c"])
        assert args.threads is None and args.chunk is None

    def test_sweep_takes_every_flag_group(self):
        args = build_parser().parse_args([
            "sweep", "f.c", "-t", "4", "-c", "2", "--mode", "literal",
            "--deadline", "1", "--max-iters", "10",
            "--jobs", "2", "--no-cache", "--fail-fast",
            "--max-failure-rate", "0.5",
        ])
        assert args.threads_list == (2, 4, 8)
        assert args.chunks_list == (1, 2, 4, 8, 16)
        assert (args.jobs, args.no_cache, args.keep_going) == (2, True, False)

    @pytest.mark.parametrize("argv", BAD_COUNTS, ids=" ".join)
    def test_count_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse(argv)
        assert exc.value.code == 2
        assert "must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_is_rejected(self, command, flag, capsys):
        argv = [command] if command == "experiments" else [command, "f.c"]
        argv += [flag, *_FLAG_VALUES.get(flag, ())]
        with pytest.raises(SystemExit) as exc:
            _parse(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestAnalyze:
    def test_reports_fs(self, heat_file, capsys):
        assert main(["analyze", heat_file, "--threads", "4", "--chunk", "1"]) == 0
        out = capsys.readouterr().out
        assert "false sharing cases" in out
        assert "victim" in out
        assert "b (" in out  # the stencil output array is the victim

    def test_define_injects_macros(self, tmp_path, capsys):
        p = tmp_path / "k.c"
        p.write_text(
            "double a[N];\nvoid f(void){int i;\n"
            "#pragma omp parallel for\n"
            "for(i=0;i<N;i++){a[i]=1.0;}}\n"
        )
        assert main(["analyze", str(p), "-D", "N=64", "-t", "2"]) == 0
        assert "false sharing" in capsys.readouterr().out

    def test_bad_define_rejected(self, heat_file):
        with pytest.raises(SystemExit):
            main(["analyze", heat_file, "-D", "N=abc"])

    def test_no_kernels_errors(self, tmp_path):
        p = tmp_path / "plain.c"
        p.write_text("void f(void) { }\n")
        with pytest.raises(SystemExit, match="no OpenMP"):
            main(["analyze", str(p)])

    def test_literal_mode(self, heat_file, capsys):
        assert main(
            ["analyze", heat_file, "-t", "2", "--mode", "literal"]
        ) == 0


class TestPredict:
    def test_prediction_output(self, heat_file, capsys):
        assert main(["predict", heat_file, "-t", "4", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "chunk runs" in out


class TestOptimize:
    def test_recommends_chunk(self, linreg_file, capsys):
        assert main(["optimize", linreg_file, "-t", "2", "--runs", "4"]) == 0
        out = capsys.readouterr().out
        assert "recommended schedule(static," in out
        assert "best" in out


class TestDiagnose:
    def test_diagnosis_output(self, heat_file, capsys):
        assert main(["diagnose", heat_file, "-t", "4", "--chunk", "1"]) == 0
        out = capsys.readouterr().out
        assert "false-sharing diagnosis" in out
        assert "adjacent-thread share" in out


class TestTrace:
    def test_writes_trace_file(self, heat_file, tmp_path, capsys):
        out_file = str(tmp_path / "heat.npz")
        assert main(
            ["trace", heat_file, "-t", "2", "-o", out_file, "--max-steps", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        from repro.sim import load_trace

        trace = load_trace(out_file)
        assert trace.meta.num_threads == 2
        assert trace.meta.steps_per_thread == (8, 8)


class TestSweep:
    def test_sweep_table(self, heat_file, capsys):
        assert main(
            ["sweep", heat_file, "--threads-list", "2,4",
             "--chunks-list", "1,8", "--runs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "configurations" in out
        assert "best:" in out


class TestCache:
    def test_stats(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cache directory" in out
        assert "entries" in out

    def test_clear_dir(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put(Job("engine.test.echo", {"value": "d"}).key(), {"v": 1})
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"removed 1 cache entries from {tmp_path}" in out
        assert store.stats().entries == 0


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, heat_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", heat_file, "-t", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "false sharing cases" in proc.stdout


class TestNumThreadsClause:
    def test_pragma_num_threads_used_as_default(self, tmp_path, capsys):
        p = tmp_path / "k.c"
        p.write_text(
            "#define N 64\ndouble a[N];\nvoid f(void){int i;\n"
            "#pragma omp parallel for num_threads(4) schedule(static,1)\n"
            "for(i=0;i<N;i++){a[i]=1.0;}}\n"
        )
        assert main(["analyze", str(p)]) == 0
        assert "4 threads" in capsys.readouterr().out

    def test_flag_overrides_clause(self, tmp_path, capsys):
        p = tmp_path / "k.c"
        p.write_text(
            "#define N 64\ndouble a[N];\nvoid f(void){int i;\n"
            "#pragma omp parallel for num_threads(4)\n"
            "for(i=0;i<N;i++){a[i]=1.0;}}\n"
        )
        assert main(["analyze", str(p), "-t", "2"]) == 0
        assert "2 threads" in capsys.readouterr().out
