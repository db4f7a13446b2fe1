"""Unit and property tests for the durable job journal.

The journal is the crash-safety keystone of the service (PR 8): every
row a client ever saw must survive a SIGKILL, and replaying the same
segments twice — or segments with duplicated/torn tails, the two
signatures of a crash mid-write — must produce identical ledgers.
Hypothesis drives the idempotence properties over random record
streams and random byte-level truncations.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.journal import (
    Journal,
    JobLedger,
    _frame,
    replay_records,
)


def _rowdoc(i: int) -> dict:
    return {"type": "cell", "n": i, "threads": 2, "chunk": 1}


class TestRoundTrip:
    def test_admit_rows_crash_terminal_round_trip(self, tmp_path):
        j = Journal(tmp_path, fsync=False)
        j.record_admit("job1", "public", {"threads": [2]}, cells_total=4,
                       created_at=123.0, requeues=1)
        j.record_rows("job1", 0, [_rowdoc(0), _rowdoc(1)])
        j.record_rows("job1", 2, [_rowdoc(2)])
        j.record_crashes("job1", 2)
        j.record_cancel("job1")
        j.record_terminal("job1", "failed", {"code": "REPRO-E105"})
        j.close()

        ledgers = Journal(tmp_path, fsync=False).replay()
        led = ledgers["job1"]
        assert led.tenant == "public"
        assert led.request == {"threads": [2]}
        assert led.cells_total == 4
        assert led.requeues == 1
        assert led.rows == [_rowdoc(0), _rowdoc(1), _rowdoc(2)]
        assert led.crashes == 2
        assert led.cancelled is True
        assert led.status == "failed"
        assert led.error == {"code": "REPRO-E105"}
        assert led.terminal

    def test_replay_twice_is_identical(self, tmp_path):
        j = Journal(tmp_path, fsync=False)
        j.record_admit("a", "t", {}, 2, 1.0)
        j.record_rows("a", 0, [_rowdoc(0)])
        j.close()
        reader = Journal(tmp_path, fsync=False)
        assert reader.replay() == reader.replay()


class TestCorruptionTolerance:
    def _seed(self, root: Path) -> Journal:
        j = Journal(root, fsync=False)
        j.record_admit("a", "t", {}, 3, 1.0)
        j.record_rows("a", 0, [_rowdoc(0)])
        j.record_rows("a", 1, [_rowdoc(1)])
        j.close()
        return j

    def test_torn_tail_is_tolerated_silently(self, tmp_path):
        j = self._seed(tmp_path)
        seg = j.active_path
        raw = seg.read_bytes()
        seg.write_bytes(raw[:-7])  # crash mid-append of the last record

        reader = Journal(tmp_path, fsync=False)
        led = reader.replay()["a"]
        assert led.rows == [_rowdoc(0)]  # prefix, never garbage
        assert reader.last_replay.torn_tail is True
        assert reader.last_replay.corrupt_records == 0

    def test_midfile_corruption_skips_and_counts(self, tmp_path):
        j = self._seed(tmp_path)
        seg = j.active_path
        lines = seg.read_bytes().splitlines(keepends=True)
        lines[1] = b"00000000 {broken\n"  # second record garbled
        seg.write_bytes(b"".join(lines))

        reader = Journal(tmp_path, fsync=False)
        led = reader.replay()["a"]
        # The rows record at offset 0 is gone; the offset-1 record is a
        # gap and must be dropped rather than mis-offset.
        assert led.rows == []
        assert reader.last_replay.corrupt_records == 1
        assert reader.last_replay.torn_tail is False

    def test_duplicated_tail_changes_nothing(self, tmp_path):
        j = self._seed(tmp_path)
        seg = j.active_path
        baseline = Journal(tmp_path, fsync=False).replay()
        raw = seg.read_bytes()
        last_line = raw.splitlines(keepends=True)[-1]
        seg.write_bytes(raw + last_line)  # record flushed twice
        assert Journal(tmp_path, fsync=False).replay() == baseline


class TestOffsets:
    def test_overlapping_rows_apply_only_new_suffix(self):
        ledgers = replay_records(iter([
            {"type": "admit", "job": "a", "tenant": "t"},
            {"type": "rows", "job": "a", "offset": 0,
             "rows": [_rowdoc(0), _rowdoc(1)]},
            {"type": "rows", "job": "a", "offset": 1,
             "rows": [_rowdoc(1), _rowdoc(2)]},
        ]))
        assert ledgers["a"].rows == [_rowdoc(0), _rowdoc(1), _rowdoc(2)]

    def test_gapped_rows_record_is_dropped(self):
        ledgers = replay_records(iter([
            {"type": "admit", "job": "a", "tenant": "t"},
            {"type": "rows", "job": "a", "offset": 5,
             "rows": [_rowdoc(5)]},
        ]))
        assert ledgers["a"].rows == []

    def test_records_for_unadmitted_jobs_are_ignored(self):
        ledgers = replay_records(iter([
            {"type": "rows", "job": "ghost", "offset": 0,
             "rows": [_rowdoc(0)]},
            {"type": "terminal", "job": "ghost", "status": "done"},
        ]))
        assert ledgers == {}

    def test_crash_counts_max_merge(self):
        ledgers = replay_records(iter([
            {"type": "admit", "job": "a", "tenant": "t"},
            {"type": "crash", "job": "a", "count": 3},
            {"type": "crash", "job": "a", "count": 1},  # stale duplicate
        ]))
        assert ledgers["a"].crashes == 3


class TestCompaction:
    def test_compaction_drops_terminal_keeps_live(self, tmp_path):
        j = Journal(tmp_path, fsync=False)
        j.record_admit("dead", "t", {}, 1, 1.0)
        j.record_terminal("dead", "done")
        j.record_admit("live", "t", {"chunks": [4]}, 2, 2.0)
        j.record_rows("live", 0, [_rowdoc(0)])
        j.record_crashes("live", 1)
        before = j.replay()

        carried = j.compact(before)
        j.close()
        assert carried == 1
        assert len(j._segments()) == 1  # history replaced by snapshot

        after = Journal(tmp_path, fsync=False).replay()
        assert "dead" not in after
        assert after["live"] == before["live"]

    def test_segment_size_triggers_rotation(self, tmp_path):
        j = Journal(tmp_path, fsync=False, max_segment_bytes=512)
        j.record_admit("a", "t", {}, 1, 1.0)
        j.record_terminal("a", "done")
        for i in range(30):
            j.record_admit(f"j{i}", "t", {}, 1, 1.0)
            j.record_terminal(f"j{i}", "done")
        j.close()
        # Rotation compacted away most of the terminal history: one
        # bounded segment remains (holding only the records appended
        # since the last rotation) and replay still works.
        reader = Journal(tmp_path, fsync=False)
        ledgers = reader.replay()
        assert all(led.terminal for led in ledgers.values())
        assert len(reader._segments()) == 1
        assert reader.active_path.stat().st_size < 1024


class TestWriterLock:
    def test_second_writer_fails_until_the_first_closes(self, tmp_path):
        from repro.resilience.errors import UsageError

        first = Journal(tmp_path, fsync=False)
        first.record_admit("a", "t", {}, 1, 1.0)  # the write takes the lock
        second = Journal(tmp_path, fsync=False)
        for write in (second.lock,
                      lambda: second.record_admit("b", "t", {}, 1, 1.0),
                      lambda: second.compact({})):
            with pytest.raises(UsageError) as exc:
                write()
            assert exc.value.code == "REPRO-U001"
            assert str(tmp_path) in str(exc.value)
        # Readers take no lock.
        assert set(second.replay()) == {"a"}
        first.close()
        second.record_admit("b", "t", {}, 1, 1.0)
        second.close()
        assert set(Journal(tmp_path, fsync=False).replay()) == {"a", "b"}

    def test_forked_worker_does_not_keep_the_lock(self, tmp_path):
        """An engine worker forked while the daemon holds the lock must
        not hold it on after the daemon is gone."""
        import multiprocessing
        import time

        holder = Journal(tmp_path, fsync=False)
        holder.lock()
        ctx = multiprocessing.get_context("fork")
        started = ctx.Event()

        def _work():
            started.set()  # the fork hooks have run by now
            time.sleep(30)

        worker = ctx.Process(target=_work)
        worker.start()
        try:
            assert started.wait(timeout=30)
            holder.close()
            successor = Journal(tmp_path, fsync=False)
            successor.lock()
            successor.close()
        finally:
            worker.kill()
            worker.join(timeout=30)
            assert not worker.is_alive()


# -- property tests -----------------------------------------------------------

@st.composite
def record_streams(draw) -> list[dict]:
    """A plausible journal history for 1-3 jobs with correct offsets."""
    records: list[dict] = []
    for jn in range(draw(st.integers(1, 3))):
        job = f"job{jn}"
        records.append({"type": "admit", "job": job, "tenant": "t",
                        "request": {}, "cells_total": 8,
                        "created_at": float(jn)})
        offset = 0
        for _ in range(draw(st.integers(0, 4))):
            n = draw(st.integers(1, 3))
            rows = [{"type": "cell", "job": job, "n": offset + k}
                    for k in range(n)]
            records.append({"type": "rows", "job": job,
                            "offset": offset, "rows": rows})
            offset += n
        if draw(st.booleans()):
            records.append({"type": "crash", "job": job,
                            "count": draw(st.integers(1, 4))})
        if draw(st.booleans()):
            records.append({"type": "terminal", "job": job,
                            "status": draw(st.sampled_from(
                                ["done", "failed", "cancelled"]))})
    return records


class TestReplayProperties:
    @settings(max_examples=60, deadline=None)
    @given(records=record_streams(), data=st.data())
    def test_truncated_stream_replays_to_a_prefix(self, records, data):
        """Chopping the byte stream anywhere — mid-record included —
        yields each job's rows as an exact prefix of the full replay,
        never a duplicate, never garbage."""
        blob = b"".join(_frame(r) for r in records)
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        full = replay_records(iter(records))
        with tempfile.TemporaryDirectory() as root:
            seg = Path(root) / "journal-00000001.ndjson"
            seg.write_bytes(blob[:cut])
            reader = Journal(root, fsync=False)
            partial = reader.replay()
            assert reader.last_replay.corrupt_records == 0
        for job_id, led in partial.items():
            whole = full[job_id].rows
            assert led.rows == whole[: len(led.rows)]

    @settings(max_examples=60, deadline=None)
    @given(records=record_streams(), data=st.data())
    def test_duplicating_any_line_is_a_no_op(self, records, data):
        """Re-appending any previously written record — the duplicated
        tail a crash between write and fsync can leave — changes
        nothing on replay."""
        dup = data.draw(st.integers(0, len(records) - 1), label="dup")
        blob = b"".join(_frame(r) for r in records)
        blob += _frame(records[dup])
        baseline = replay_records(iter(records))
        with tempfile.TemporaryDirectory() as root:
            seg = Path(root) / "journal-00000001.ndjson"
            seg.write_bytes(blob)
            assert Journal(root, fsync=False).replay() == baseline

    @settings(max_examples=30, deadline=None)
    @given(records=record_streams())
    def test_replay_is_idempotent(self, records):
        """Folding the same records twice (pure function) is stable,
        and replaying a replayed-and-compacted journal round-trips the
        live jobs exactly."""
        once = replay_records(iter(records))
        twice = replay_records(iter(records))
        assert once == twice
        with tempfile.TemporaryDirectory() as root:
            j = Journal(root, fsync=False)
            for rec in records:
                j.append(rec)
            j.compact(j.replay())
            j.close()
            after = Journal(root, fsync=False).replay()
        live = {k: v for k, v in once.items() if not v.terminal}
        assert after == live


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
