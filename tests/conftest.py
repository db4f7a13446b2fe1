"""Shared fixtures: miniature machines, nests and kernel instances.

Also installs a per-test wall-clock timeout guard (SIGALRM-based, no
third-party plugin needed) so a hung worker pool or an accidental
busy-loop cannot wedge the whole suite — a stuck test fails with a
diagnostic instead.  Tune with ``REPRO_TEST_TIMEOUT`` (seconds;
``0`` disables the guard).
"""

from __future__ import annotations

import os
import signal
import threading

import pytest
from hypothesis import settings

from repro.ir import (
    AffineExpr,
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    Const,
    DOUBLE,
    LoadExpr,
    Loop,
    ParallelLoopNest,
    Schedule,
)
from repro.machine import paper_machine, tiny_machine


_TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT", "120"))

#: A deeper example budget for the property suites that leave
#: ``max_examples`` to the profile (``tests/test_sim_equivalence.py``);
#: select it with ``pytest --hypothesis-profile=deep``.
settings.register_profile("deep", max_examples=2000, deadline=None)


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    """Fail any single test that runs longer than ``REPRO_TEST_TIMEOUT`` s.

    Uses ``SIGALRM``, so it only arms on POSIX main-thread runs (exactly
    the environments where a hung ``ProcessPoolExecutor`` would
    otherwise block forever).  Elsewhere it is a no-op.
    """
    if (
        _TEST_TIMEOUT_S <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):  # pragma: no cover - only fires on a hang
        pytest.fail(
            f"test exceeded the {_TEST_TIMEOUT_S:.0f}s wall-clock guard "
            f"(REPRO_TEST_TIMEOUT): {request.node.nodeid}",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch):
    """Point the engine's result store at a per-test tmp dir.

    Keeps the suite from reading or polluting the developer's real
    ``~/.cache/repro``, and makes every test start cache-cold unless it
    builds its own :class:`repro.engine.ResultStore`.
    """
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
    )


@pytest.fixture
def machine():
    """The paper's 48-core machine."""
    return paper_machine()


@pytest.fixture
def small_machine():
    """A 4-core machine with 16-line caches (evictions observable)."""
    return tiny_machine(num_cores=4, cache_lines=16)


def make_copy_nest(
    n: int = 64, chunk: int = 1, parallel_var: str = "i", name: str = "copy.i"
) -> ParallelLoopNest:
    """``parallel for (i) b[i] = a[i] + 1`` — the simplest FS-prone loop."""
    a = ArrayDecl.create("a", DOUBLE, (n,))
    b = ArrayDecl.create("b", DOUBLE, (n,))
    i = AffineExpr.var("i")
    body = Assign(
        ArrayRef(b, (i,), is_write=True),
        BinOp("+", LoadExpr(ArrayRef(a, (i,))), Const(1.0, DOUBLE)),
    )
    loop = Loop.create("i", 0, n, [body])
    return ParallelLoopNest(
        name=name, root=loop, parallel_var=parallel_var,
        schedule=Schedule("static", chunk),
    )


def make_nested_nest(rows: int = 4, cols: int = 32, chunk: int = 1) -> ParallelLoopNest:
    """``for (i) parallel for (j) b[i][j] = a[i][j]`` — inner-parallel 2D."""
    a = ArrayDecl.create("a2", DOUBLE, (rows, cols))
    b = ArrayDecl.create("b2", DOUBLE, (rows, cols))
    i = AffineExpr.var("i")
    j = AffineExpr.var("j")
    body = Assign(
        ArrayRef(b, (i, j), is_write=True),
        LoadExpr(ArrayRef(a, (i, j))),
    )
    inner = Loop.create("j", 0, cols, [body])
    outer = Loop.create("i", 0, rows, [inner])
    return ParallelLoopNest(
        name="nested.j", root=outer, parallel_var="j",
        schedule=Schedule("static", chunk),
    )


@pytest.fixture
def copy_nest():
    return make_copy_nest()


@pytest.fixture
def nested_nest():
    return make_nested_nest()
