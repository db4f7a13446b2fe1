"""Concurrent multi-process access to one shared ``ResultStore`` dir.

The analysis service points every engine worker — and, across
restarts, every daemon generation — at the same content-addressed
store, so two processes hammering one directory concurrently must
never corrupt an entry or serve a torn read.  These tests drive real
subprocesses (not threads) against one store root and assert exactly
that.
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

from repro.engine import ResultStore, stable_hash

#: Worker script run in separate interpreters: hammer the shared store
#: with interleaved put/get traffic, print a JSON verdict.
_WORKER = r"""
import json, sys
from repro.engine import ResultStore, stable_hash

root, worker_id, rounds, n_keys = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)
store = ResultStore(root)
torn = 0
wrong = 0
for r in range(rounds):
    for i in range(n_keys):
        key = stable_hash({"shared-key": i})
        # Every writer writes the SAME canonical value for a key, so
        # any reader must observe either a miss or that exact value.
        value = {"key_index": i, "payload": "x" * 64}
        store.put(key, value, kind="conc-test")
        seen = store.get(key)
        if seen is None:
            torn += 1          # miss is legal mid-replace, count it
        elif seen != value:
            wrong += 1         # a torn/corrupt read never is
print(json.dumps({"worker": worker_id, "torn": torn, "wrong": wrong}))
"""


def _run_workers(root: Path, n_workers: int, rounds: int, n_keys: int):
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(root), str(i),
             str(rounds), str(n_keys)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
        )
        for i in range(n_workers)
    ]
    verdicts = []
    for p in procs:
        out, err = p.communicate(timeout=90)
        assert p.returncode == 0, f"worker died: {err}"
        verdicts.append(json.loads(out.strip().splitlines()[-1]))
    return verdicts


class TestConcurrentAccess:
    def test_two_processes_never_see_torn_entries(self, tmp_path):
        root = tmp_path / "shared-store"
        verdicts = _run_workers(root, n_workers=2, rounds=20, n_keys=8)
        assert all(v["wrong"] == 0 for v in verdicts), verdicts

    def test_store_is_intact_after_the_stampede(self, tmp_path):
        root = tmp_path / "shared-store"
        _run_workers(root, n_workers=2, rounds=15, n_keys=6)
        store = ResultStore(root)
        # Every key readable, every payload exactly canonical.
        for i in range(6):
            key = stable_hash({"shared-key": i})
            entry = store.get(key)
            assert entry == {"key_index": i, "payload": "x" * 64}
        # And every on-disk file is complete valid JSON (no .tmp- junk
        # left behind, no half-written entries).
        files = list(root.rglob("*.json"))
        assert len(files) == 6
        assert not list(root.rglob(".tmp-*"))
        for f in files:
            json.loads(f.read_text(encoding="utf-8"))


class TestAtomicReplace:
    def test_put_is_atomic_against_a_reader(self, tmp_path):
        """A reader polling during rapid rewrites sees only full values."""
        store = ResultStore(tmp_path / "s")
        key = stable_hash({"k": 1})
        stop = multiprocessing.Event()

        def reader(path, results):
            r = ResultStore(path)
            bad = 0
            for _ in range(400):
                entry = r.get(key)
                if entry is not None and set(entry) != {"v", "pad"}:
                    bad += 1
            results.put(bad)

        results = multiprocessing.Queue()
        proc = multiprocessing.Process(
            target=reader, args=(tmp_path / "s", results)
        )
        proc.start()
        try:
            for v in range(300):
                store.put(key, {"v": v, "pad": "y" * 128}, kind="conc")
        finally:
            stop.set()
            proc.join(timeout=60)
        assert results.get(timeout=10) == 0

    def test_overwrite_same_key_keeps_single_file(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = stable_hash({"k": "same"})
        for v in range(10):
            store.put(key, {"v": v}, kind="conc")
        files = list((tmp_path / "s").rglob("*.json"))
        assert len(files) == 1
        assert store.get(key) == {"v": 9}
