"""Documentation integrity: the docs must match the repository.

These tests keep README/DESIGN/docs honest: referenced files exist,
the experiment index points at real bench modules, the README's
quickstart snippet actually runs, quoted detector timings are the
committed ``BENCH_model.json``'s and quoted perfbench figures the
committed ``BENCH_perfbench.json``'s.
"""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestDesignExperimentIndex:
    def test_referenced_benches_exist(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for name in re.findall(r"\b(bench_\w+\.py)", design):
            assert (REPO / "benchmarks" / name).exists(), (
                f"DESIGN.md references missing bench {name}"
            )

    def test_referenced_tests_exist(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for name in re.findall(r"tests/(test_\w+\.py)", design):
            assert (REPO / "tests" / name).exists(), (
                f"DESIGN.md references missing test file {name}"
            )

    def test_referenced_examples_exist(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for name in re.findall(r"examples/(\w+\.py)", design):
            assert (REPO / "examples" / name).exists(), (
                f"DESIGN.md references missing example {name}"
            )

    def test_every_paper_table_has_a_bench(self):
        """Every paper table and figure has its claim checked in tier-1
        (``tests/test_analysis.py``)."""
        tier1 = (REPO / "tests" / "test_analysis.py").read_text(encoding="utf-8")
        for n in range(1, 7):
            assert f"def test_table{n}_" in tier1, f"Table {n} check missing"
        for fig in ("fig2", "fig6", "fig8", "fig9"):
            assert f"def test_{fig}_" in tier1, f"{fig} check missing"


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
        refs = re.findall(r"`tests/(test_\w+\.py)((?:::\w+)*)`", mapping)
        for t, names in refs:
            assert (REPO / "tests" / t).exists(), (
                f"PAPER_MAPPING references missing test file {t}"
            )
            body = (REPO / "tests" / t).read_text(encoding="utf-8")
            for name in names.split("::")[1:]:
                assert re.search(rf"(def|class) {name}\b", body), (
                    f"PAPER_MAPPING references missing test {t}::{name}"
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


class TestBenchPerfbenchQuotes:
    """perfbench figures in the docs are read from ``BENCH_perfbench.json``.

    Two quoting forms are checked.  A table led by a sentence citing
    "`BENCH_perfbench.json` record `ID`" has rows whose first cell names
    `` `workload` `metric` `` and whose next cells give the parent's and
    the change's median (optionally ``[q1, q3]``) and "N of M" pairs;
    a dotted metric is a per-layer figure of the record's traced run.
    A sentence "`workload` `metric` falls from X to Y (`BENCH_perfbench.json`
    record `ID`" quotes the two medians.  A table led by
    "`BENCH_perfbench.json`, field `F` of record `ID`" quotes a record's
    in-process measurements.
    """

    _DOCS = ("README.md", "docs/PERFORMANCE.md")
    _CITE = r"`BENCH_perfbench\.json`\s+record\s+`([\w-]+)`"
    _FIELD = r"`BENCH_perfbench\.json`,\s+field\s+`(\w+)`\s+of\s+record\s+`([\w-]+)`"

    @staticmethod
    def _records() -> dict:
        doc = json.loads(
            (REPO / "BENCH_perfbench.json").read_text(encoding="utf-8")
        )
        return {r["id"]: r for r in doc["records"]}

    @staticmethod
    def _text(doc: str) -> str:
        return (REPO / doc).read_text(encoding="utf-8")

    @staticmethod
    def _tables(text: str, lead: str):
        """(the lead's groups, rows) of each table a ``lead`` match leads."""
        for cite in re.finditer(lead, text):
            after = text[cite.end():].split("\n\n|", 1)
            if len(after) < 2 or "\n\n" in after[0].strip("\n"):
                continue  # the citation does not lead a table
            rows = []
            for line in ("|" + after[1]).splitlines()[2:]:
                if not line.startswith("|"):
                    break
                rows.append([c.strip() for c in line.strip("|").split("|")])
            yield cite.groups(), rows

    @staticmethod
    def _figures(record: dict, workload: str, metric: str) -> tuple:
        """(parent, change, pairs) figures the record holds for a row."""
        entry = record["workloads"][workload]
        if "." in metric:
            traced = entry["traced"]
            return [traced["parent"][metric]], [traced["change"][metric]], None
        s = entry["summary"][metric]
        return (
            [s["parent_median"], s["parent_q1"], s["parent_q3"]],
            [s["change_median"], s["change_q1"], s["change_q3"]],
            [s["change_better_in"], s["pairs"]],
        )

    @pytest.mark.parametrize("doc", _DOCS)
    def test_quoted_tables_match_json(self, doc):
        records = self._records()
        checked = 0
        for (rid,), rows in self._tables(self._text(doc), self._CITE):
            record = records[rid]
            for cells in rows:
                workload, metric = re.findall(r"`([\w.]+)`", cells[0])[:2]
                want = self._figures(record, workload, metric)
                for cell, values in zip(cells[1:4], want):
                    quoted = TestBenchModelQuotes._numbers(cell)
                    if values is None or not quoted:
                        continue
                    assert len(quoted) <= len(values), (doc, cells)
                    for text, value in zip(quoted, values):
                        assert TestBenchModelQuotes._quotes(text, value), (
                            f"{doc} {workload} {metric}: {cell!r} is not "
                            f"BENCH_perfbench.json's {values}"
                        )
                    checked += 1
        if doc == "docs/PERFORMANCE.md":
            assert checked, "PERFORMANCE.md no longer quotes perfbench pairs"

    @pytest.mark.parametrize("doc", _DOCS)
    def test_quoted_sentences_match_json(self, doc):
        records = self._records()
        text = " ".join(self._text(doc).split())
        found = re.findall(
            r"`(\w+)` `([\w.]+)` falls from ([\d.]+) \S+ to ([\d.]+) \S+ "
            r"\(" + self._CITE,
            text,
        )
        assert found, f"{doc} no longer quotes the claimed perfbench gain"
        for workload, metric, before, after, rid in found:
            parent, change, _ = self._figures(records[rid], workload, metric)
            assert TestBenchModelQuotes._quotes(before, parent[0]), (doc, metric)
            assert TestBenchModelQuotes._quotes(after, change[0]), (doc, metric)

    def test_quoted_field_tables_match_json(self):
        """Each row of a field table is one of the field's ``rows``: the
        first cell is its ``label``, and the numbers in the other cells
        are its ``values`` in order (a ``null`` value is a dash)."""
        records = self._records()
        text = self._text("docs/PERFORMANCE.md")
        checked = 0
        for (field, rid), rows in self._tables(text, self._FIELD):
            entries = {e["label"]: e["values"] for e in records[rid][field]["rows"]}
            assert [cells[0] for cells in rows] == list(entries), field
            for cells in rows:
                quoted = [
                    n for cell in cells[1:]
                    for n in TestBenchModelQuotes._numbers(cell)
                ]
                values = [v for v in entries[cells[0]] if v is not None]
                assert len(quoted) == len(values), (field, cells)
                for number, value in zip(quoted, values):
                    assert TestBenchModelQuotes._quotes(number, value), (
                        f"{field} {cells[0]}: {number} is not "
                        f"BENCH_perfbench.json's {value}"
                    )
                checked += 1
        assert checked, "PERFORMANCE.md no longer quotes the proof's measurements"
