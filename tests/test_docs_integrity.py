"""Documentation integrity: the docs must match the repository.

These tests keep README/DESIGN/docs honest: referenced files exist,
the experiment index points at real bench modules, the README's
quickstart snippet actually runs, and quoted detector timings are the
committed ``BENCH_model.json``'s.
"""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestDesignExperimentIndex:
    def test_referenced_benches_exist(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for name in re.findall(r"benchmarks/(bench_\w+\.py)", design):
            assert (REPO / "benchmarks" / name).exists(), (
                f"DESIGN.md references missing bench {name}"
            )

    def test_referenced_examples_exist(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for name in re.findall(r"examples/(\w+\.py)", design):
            assert (REPO / "examples" / name).exists(), (
                f"DESIGN.md references missing example {name}"
            )

    def test_every_paper_table_has_a_bench(self):
        benches = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for n in (1, 2, 3, 4, 5, 6):
            assert any(f"table{n}" in b for b in benches), f"Table {n} bench missing"
        for fig in ("fig2", "fig6", "fig8", "fig9"):
            assert any(fig in b for b in benches), f"{fig} bench missing"


class TestReadme:
    def test_mentioned_example_files_exist(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for name in re.findall(r"`(\w+\.py)`", readme):
            assert (REPO / "examples" / name).exists(), (
                f"README references missing example {name}"
            )

    def test_quickstart_snippet_runs(self):
        """Execute the README's first python code block."""
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks, "README must contain a python quickstart block"
        namespace: dict = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)

    def test_follow_up_snippets_run(self):
        """The predictor and optimizer snippets build on the quickstart."""
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) >= 3
        namespace: dict = {}
        for block in blocks[:3]:
            exec(compile(block, "<README snippet>", "exec"), namespace)


class TestPaperMapping:
    def test_referenced_modules_exist(self):
        mapping = (REPO / "docs" / "PAPER_MAPPING.md").read_text(encoding="utf-8")
        for mod in re.findall(r"`repro/([\w/]+\.py)`", mapping):
            assert (REPO / "src" / "repro" / mod).exists(), (
                f"PAPER_MAPPING references missing module {mod}"
            )

    def test_referenced_tests_exist(self):
        mapping = (REPO / "docs" / "PAPER_MAPPING.md").read_text(encoding="utf-8")
        for t in re.findall(r"`tests/(test_\w+\.py)", mapping):
            assert (REPO / "tests" / t).exists(), (
                f"PAPER_MAPPING references missing test file {t}"
            )


class TestCliInvocations:
    """Every ``repro-fs <command> … --flag [value]`` in the docs uses a
    flag that command defines, with a value from its ``choices``."""

    @staticmethod
    def _invocations():
        """(doc, command, argument tokens) per ``repro-fs`` mention; a
        backslash continuation joins the next line, and a backtick,
        pipe, redirect, comment or shell separator ends the command."""
        for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
            text = doc.read_text(encoding="utf-8").replace("\\\n", " ")
            for m in re.finditer(r"repro-fs[ \t]+([^\n`|;&#>)]*)", text):
                tokens = m.group(1).split()
                if tokens:
                    yield doc.name, tokens[0], tokens[1:]

    def test_flags_and_values_exist(self):
        from repro.cli import build_parser

        commands = build_parser()._subparsers._group_actions[0].choices
        seen = 0
        for doc, command, args in self._invocations():
            assert command in commands, f"{doc}: no command {command!r}"
            options = commands[command]._option_string_actions
            for i, token in enumerate(args):
                if not token.startswith("-"):
                    continue
                flag, _, value = token.partition("=")
                assert flag in options, (
                    f"{doc}: `repro-fs {command}` has no flag {flag}"
                )
                action = options[flag]
                if action.choices is None or action.nargs == 0:
                    continue
                if not value and i + 1 < len(args):
                    value = args[i + 1]
                assert not value or value in action.choices, (
                    f"{doc}: `repro-fs {command} {flag} {value}` — "
                    f"choose from {sorted(action.choices)}"
                )
            seen += 1
        assert seen > 50  # the scan found the docs' command examples


class TestErrorCodeTable:
    def test_resilience_table_lists_exactly_the_registry(self):
        from repro.resilience.errors import ERROR_CODES

        text = (REPO / "docs" / "RESILIENCE.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| (REPRO-[A-Z]\d{3}) +\|", text, flags=re.M)
        assert len(rows) == len(set(rows)), "duplicate error-code rows"
        assert set(rows) == set(ERROR_CODES)


class TestPackagingMetadata:
    def test_pyproject_points_at_cli(self):
        text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        assert 'repro-fs = "repro.cli:main"' in text

    def test_version_consistency(self):
        import repro

        text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        assert f'version = "{repro.__version__}"' in text


class TestBenchModelQuotes:
    """Detector figures in the docs are read from ``BENCH_model.json``,
    not from memory."""

    #: PERFORMANCE.md table column → JSON field, per row kind
    _MICRO_FIELDS = {
        "reference": "reference_macc_per_s",
        "default": "fast_macc_per_s",
        "speedup": "speedup",
    }
    _ROW_FIELDS = {
        "reference": "reference_s",
        "plain fast": "plain_s",
        "default": "optimized_s",
        "speedup": "speedup",
    }

    @staticmethod
    def _bench() -> dict:
        return json.loads((REPO / "BENCH_model.json").read_text(encoding="utf-8"))

    @staticmethod
    def _numbers(cell: str) -> list[str]:
        return [n.replace(",", "") for n in re.findall(r"\d[\d,]*(?:\.\d+)?", cell)]

    @staticmethod
    def _quotes(text: str, value: float) -> bool:
        """``text`` is ``value`` to the decimals ``text`` shows."""
        decimals = len(text.partition(".")[2])
        return float(text) == round(value, decimals)

    def _table(self) -> tuple[list[str], list[list[str]]]:
        """Header and rows of the table that follows the sentence naming
        the committed ``BENCH_model.json``."""
        text = (REPO / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
        after = text.split("Numbers from the committed `BENCH_model.json`", 1)[1]
        lines = after.splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.startswith("|"))
        table = []
        for ln in lines[start:]:
            if not ln.startswith("|"):
                break
            table.append([c.strip() for c in ln.strip("|").split("|")])
        header, _, *rows = table
        return header, rows

    def test_performance_table_matches_json(self):
        bench = self._bench()
        header, rows = self._table()
        expected = (
            [("micro", bench["micro"])]
            + [("row", r) for r in bench["tables"]]
            + [("row", r) for r in bench["large_grid"]]
        )
        assert len(rows) == len(expected)
        for cells, (kind, want) in zip(rows, expected):
            label = cells[0]
            fields = self._MICRO_FIELDS if kind == "micro" else self._ROW_FIELDS
            for name, cell in zip(header[1:], cells[1:]):
                if name in fields:
                    (quoted,) = self._numbers(cell)
                    assert self._quotes(quoted, want[fields[name]]), (
                        f"PERFORMANCE.md {label!r} {name}: {cell!r} is not "
                        f"BENCH_model.json's {want[fields[name]]}"
                    )
                else:
                    assert not self._numbers(cell), (label, name, cell)
            if kind == "row":
                assert f"T={want['threads']}" in label
                assert f"chunk={want['chunk']}" in label
                accesses = re.search(r"\(([\d,]+) accesses\)", label)
                if accesses:
                    assert self._numbers(accesses.group(1)) == [str(want["accesses"])]

    @pytest.mark.parametrize("doc", ["README.md", "docs/PERFORMANCE.md"])
    def test_quoted_speedups_match_json(self, doc):
        summary = self._bench()["summary"]
        text = " ".join((REPO / doc).read_text(encoding="utf-8").split())
        micro = re.findall(r"(\d+(?:\.\d+)?)× detector throughput", text)
        large = re.findall(
            r"(\d+(?:\.\d+)?)–(\d+(?:\.\d+)?)× end[- ]to[- ]end", text
        )
        assert micro and large, f"{doc} no longer quotes the detector figures"
        assert all(self._quotes(m, summary["micro_speedup"]) for m in micro)
        speedups = summary["large_grid_speedups"]
        for lo, hi in large:
            assert self._quotes(lo, min(speedups))
            assert self._quotes(hi, max(speedups))
