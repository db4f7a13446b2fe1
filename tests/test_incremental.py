"""Tests for :mod:`repro.engine.incremental` — reuse through the store.

Two contracts:

* **incremental re-runs** (``repro-fs sweep``): a warm re-run is served
  from the result store, and after one kernel of two is edited only its
  cells recompute — the untouched kernel's cells are store hits,
  because every cell's key folds in its nest's source digest.
* **reuse accounting**: :class:`ReuseReport` classifies every outcome
  by provenance (compute / disk / dedupe / failed) and its ``to_dict``
  block is what sweep and experiment summaries embed.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.engine import Job, ResultStore, ReuseReport, reuse_from_outcomes
from repro.engine.pool import JobOutcome
from repro.kernels import heat_source


def _outcome(**kw) -> JobOutcome:
    job = Job("engine.test.echo", {"value": kw.pop("value", 0)})
    kw.setdefault("result", {"value": 0})
    return JobOutcome(job=job, **kw)


# ---------------------------------------------------------------------------
# ReuseReport
# ---------------------------------------------------------------------------


class TestReuseReport:
    def test_record_classifies_by_tier(self):
        report = reuse_from_outcomes([
            _outcome(),
            _outcome(from_cache=True, cache_tier="disk"),
            _outcome(from_cache=True, cache_tier="disk"),
            _outcome(from_cache=True, cache_tier="dedupe"),
            _outcome(result=None, error="boom"),
        ])
        assert report.total == 5
        assert report.computed == 1
        assert (report.disk_hits, report.deduped) == (2, 1)
        assert report.failed == 1
        assert report.reused == 3

    def test_fraction(self):
        report = ReuseReport()
        report.record(_outcome(from_cache=True, cache_tier="disk"))
        report.record(_outcome(from_cache=True, cache_tier="disk"))
        report.record(_outcome(from_cache=True, cache_tier="dedupe"))
        report.record(_outcome())
        assert report.total == 4
        assert report.fraction == 0.75
        assert ReuseReport().fraction == 0.0

    def test_merge_adds_every_bucket(self):
        a = ReuseReport(total=2, computed=1, disk_hits=1)
        b = ReuseReport(total=3, disk_hits=1, failed=1, deduped=1)
        a.merge(b)
        assert a.total == 5
        assert (a.computed, a.disk_hits) == (1, 2)
        assert (a.deduped, a.failed) == (1, 1)

    def test_to_dict_schema(self):
        doc = ReuseReport(total=4, computed=1, disk_hits=2,
                          deduped=1).to_dict()
        assert doc == {
            "total": 4, "computed": 1, "disk_hits": 2, "deduped": 1,
            "failed": 0, "reused": 3, "fraction": 0.75,
        }

    def test_one_line(self):
        line = ReuseReport(total=4, disk_hits=3, computed=1).one_line()
        assert line == "75% reused (disk 3 / dedupe 0) of 4 cells"


# ---------------------------------------------------------------------------
# CLI: sweep re-runs served by the store
# ---------------------------------------------------------------------------


@pytest.fixture
def two_kernels(tmp_path):
    k1 = tmp_path / "k1.c"
    k2 = tmp_path / "k2.c"
    k1.write_text(heat_source(6, 130))
    k2.write_text(heat_source(6, 258))
    return str(k1), str(k2)


def _sweep(*files):
    return main(["sweep", *files, "--threads-list", "2,4",
                 "--chunks-list", "1"])


class TestStoreReuseCLI:
    def test_edit_one_kernel_recomputes_only_it(self, two_kernels, capsys):
        k1, k2 = two_kernels
        store = ResultStore()  # conftest isolates $REPRO_CACHE_DIR

        # Run 1: cold store -> every cell computed.
        assert _sweep(k1, k2) == 0
        out = capsys.readouterr().out
        assert out.count("configurations") == 2
        assert "reuse: 0% reused (disk 0 / dedupe 0) of 4 cells" in out
        assert store.stats().entries == 4

        # Run 2: nothing changed -> every cell is a store hit.
        assert _sweep(k1, k2) == 0
        out = capsys.readouterr().out
        assert out.count("configurations") == 2
        assert "reuse: 100% reused (disk 4 / dedupe 0) of 4 cells" in out

        # Run 3: edit k2 -> its digest moves, so its two cells are new
        # keys and must compute; the two store hits are k1's cells.
        with open(k2, "w") as fh:
            fh.write(heat_source(8, 258))
        assert _sweep(k1, k2) == 0
        out = capsys.readouterr().out
        assert out.count("configurations") == 2
        assert "reuse: 50% reused (disk 2 / dedupe 0) of 4 cells" in out
        assert store.stats().entries == 6

        # k1 alone is still fully served by the store.
        assert _sweep(k1) == 0
        assert ("reuse: 100% reused (disk 2 / dedupe 0) of 2 cells"
                in capsys.readouterr().out)
