"""Reuse accounting: where each cell of a sweep or experiment came from.

The engine reuses results two ways and no others: the content-addressed
:class:`~repro.engine.store.ResultStore` (across batches, processes and
daemon restarts) and in-batch dedupe (one computation fanned out to
every job with the same key).  A sweep cell's key folds in its nest's
:func:`~repro.engine.keys.nest_digest`, so a re-run after editing one
kernel of several recomputes only that kernel's cells; the others are
store hits.

:class:`ReuseReport` classifies every cell by *where its result came
from* — fresh compute, the store (``disk``), an in-batch alias
(``dedupe``) or a failure — and renders the ``reuse`` block embedded in
every summary: the "93% reused" line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.engine.pool import JobOutcome

__all__ = ["ReuseReport", "reuse_from_outcomes"]


@dataclass
class ReuseReport:
    """Where a sweep's cells came from: compute vs store vs dedupe.

    ``record`` classifies one :class:`~repro.engine.pool.JobOutcome` by
    its ``cache_tier``.  ``to_dict`` is the ``reuse`` block embedded in
    sweep/experiment summaries (schema documented in
    ``docs/ENGINE.md``).
    """

    total: int = 0
    computed: int = 0
    disk_hits: int = 0
    deduped: int = 0
    failed: int = 0

    @property
    def reused(self) -> int:
        """Cells that did not execute: store hits + in-batch aliases."""
        return self.disk_hits + self.deduped

    @property
    def fraction(self) -> float:
        """Reused ÷ total (0.0 on an empty report)."""
        return self.reused / self.total if self.total else 0.0

    def record(self, outcome: JobOutcome) -> None:
        """Classify one engine outcome into the reuse buckets."""
        self.total += 1
        if not outcome.ok:
            self.failed += 1
        elif not outcome.from_cache:
            self.computed += 1
        elif outcome.cache_tier == "disk":
            self.disk_hits += 1
        else:  # "dedupe"
            self.deduped += 1

    def merge(self, other: "ReuseReport") -> None:
        """Fold another report (e.g. one per nest) into this one."""
        self.total += other.total
        self.computed += other.computed
        self.disk_hits += other.disk_hits
        self.deduped += other.deduped
        self.failed += other.failed

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "computed": self.computed,
            "disk_hits": self.disk_hits,
            "deduped": self.deduped,
            "failed": self.failed,
            "reused": self.reused,
            "fraction": round(self.fraction, 4),
        }

    def one_line(self) -> str:
        """Human summary: ``93% reused (disk 40 / dedupe 2) of 45 cells``."""
        return (
            f"{100.0 * self.fraction:.0f}% reused "
            f"(disk {self.disk_hits} / dedupe {self.deduped}) "
            f"of {self.total} cells"
        )


def reuse_from_outcomes(outcomes: Iterable[JobOutcome]) -> ReuseReport:
    """Build a :class:`ReuseReport` over a finished batch."""
    report = ReuseReport()
    for outcome in outcomes:
        report.record(outcome)
    return report
