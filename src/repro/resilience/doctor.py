"""Self-checks behind ``repro-fs doctor``.

The doctor proves, in-process and in a couple of seconds, that every
robustness mechanism documented in docs/RESILIENCE.md actually works in
this installation:

* the error-code registry is consistent (format, categories, exit
  codes);
* taxonomy compatibility holds (``ModelError`` *is a* ``ValueError``,
  ``EngineError`` *is a* ``RuntimeError``, errors survive pickling);
* budget guards reject over-budget analyses *before* running them;
* the degradation ladder reaches every fidelity level and degrades
  under pressure instead of crashing;
* fault injection fires (and filters by ``match=``) so the test
  harness' failures are real failures;
* the result store round-trips entries and treats corruption as a
  cache miss rather than an error;
* partial-result policies isolate failures and the circuit breaker
  trips at its threshold.

Each check is independent; :func:`run_doctor` runs them all and
returns structured :class:`CheckResult` rows, so a broken installation
reports *every* broken subsystem, not just the first.
"""

from __future__ import annotations

import pickle
import re
import tempfile
from dataclasses import dataclass
from typing import Callable

from repro.resilience.budget import Budget, estimate_cost
from repro.resilience.errors import (
    ERROR_CODES,
    EXIT_CODES,
    BudgetExceededError,
    CircuitOpenError,
    EngineError,
    FaultInjectedError,
    ModelError,
    ReproError,
    UsageError,
)
from repro.resilience.faults import FaultPlan, fault_point, install_plan
from repro.resilience.ladder import (
    FIDELITY_LEVELS,
    analyze_with_ladder,
    fidelity_tier,
)
from repro.resilience.partial import FailurePolicy, FailureReport

__all__ = ["CheckResult", "run_doctor"]

_CODE_RE = re.compile(r"^REPRO-[UFMREX]\d{3}$")


@dataclass(frozen=True)
class CheckResult:
    """One doctor check's verdict."""

    name: str
    ok: bool
    detail: str

    def one_line(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"[{mark}] {self.name:<20} {self.detail}"


def _check_error_codes() -> str:
    if not ERROR_CODES:
        raise AssertionError("error-code registry is empty")
    for code, description in ERROR_CODES.items():
        if not _CODE_RE.match(code):
            raise AssertionError(f"malformed code {code!r}")
        if not description:
            raise AssertionError(f"code {code} has no description")
    for category in ("usage", "frontend", "model", "resource", "engine"):
        if category not in EXIT_CODES:
            raise AssertionError(f"no exit code for category {category!r}")
    return f"{len(ERROR_CODES)} registered codes, all well-formed"


def _check_taxonomy() -> str:
    if not issubclass(ModelError, ValueError):
        raise AssertionError("ModelError must remain a ValueError")
    if not issubclass(EngineError, RuntimeError):
        raise AssertionError("EngineError must remain a RuntimeError")
    if not issubclass(UsageError, ValueError):
        raise AssertionError("UsageError must remain a ValueError")
    err = ModelError("doctor probe", context={"n": 1})
    clone = pickle.loads(pickle.dumps(err))
    if (clone.code, clone.message) != (err.code, err.message):
        raise AssertionError("ReproError does not survive pickling")
    if err.exit_code != EXIT_CODES["model"]:
        raise AssertionError("model errors map to the wrong exit code")
    return "MRO compat + pickling + exit-code mapping hold"


def _nest():
    from repro.kernels import build_linreg_nest

    return build_linreg_nest(8, 16)


def _machine():
    from repro.machine import paper_machine

    return paper_machine(num_cores=8)


def _check_budget_guards() -> str:
    machine, nest = _machine(), _nest()
    estimate = estimate_cost(nest, 4, machine)
    if estimate.steps <= 0 or estimate.accesses <= 0:
        raise AssertionError("cost estimate is degenerate")
    try:
        Budget(max_steps=1).check_estimate(estimate, where="doctor")
    except BudgetExceededError as exc:
        if exc.code != "REPRO-R001":
            raise AssertionError(f"steps guard raised {exc.code}, not R001")
    else:
        raise AssertionError("steps guard did not fire on a 1-step budget")
    expired = Budget(deadline_s=1e-9)
    try:
        expired.check_deadline("doctor")
    except BudgetExceededError as exc:
        if exc.code != "REPRO-R002":
            raise AssertionError(f"deadline guard raised {exc.code}")
    else:
        raise AssertionError("deadline guard did not fire")
    try:
        Budget(max_steps=-1)
    except UsageError:
        pass
    else:
        raise AssertionError("negative budget accepted")
    return "pre-run steps + deadline guards fire with stable codes"


def _check_ladder() -> str:
    machine, nest = _machine(), _nest()
    exact = analyze_with_ladder(machine, nest, 4, prefer="exact")
    if fidelity_tier(exact.fidelity) != "exact" or exact.degraded:
        raise AssertionError("unbudgeted analysis did not stay exact")
    squeezed = analyze_with_ladder(
        machine, nest, 4, prefer="exact", budget=Budget(max_steps=1)
    )
    if fidelity_tier(squeezed.fidelity) == "exact":
        raise AssertionError("1-step budget did not force a fallback")
    if not squeezed.degraded:
        raise AssertionError("degraded outcome carries no reason")
    if squeezed.fidelity not in FIDELITY_LEVELS:
        raise AssertionError(f"unknown fidelity {squeezed.fidelity!r}")
    bound = analyze_with_ladder(machine, nest, 4, prefer="analytic")
    if bound.fs_cases < exact.fs_cases:
        raise AssertionError(
            f"analytic bound {bound.fs_cases} below exact {exact.fs_cases}"
        )
    return (
        f"exact={exact.fs_cases:.0f} cases; 1-step budget degrades to "
        f"{squeezed.fidelity}; analytic bound holds"
    )


def _check_faults() -> str:
    with install_plan(FaultPlan.parse("doctor.site:raise:match=yes")):
        fault_point("doctor.site", label="no-thanks")  # filtered by match=
        fault_point("other.site", label="yes")  # filtered by site
        try:
            fault_point("doctor.site", label="yes-please")
        except FaultInjectedError as exc:
            if exc.code != "REPRO-X901":
                raise AssertionError(f"injected fault code {exc.code}")
        else:
            raise AssertionError("matching fault did not fire")
    fault_point("doctor.site", label="yes")  # plan uninstalled: no-op
    return "probes fire, filter on site/match, and uninstall cleanly"


def _check_store() -> str:
    from repro.engine.store import ResultStore

    with tempfile.TemporaryDirectory(prefix="repro-doctor-") as root:
        store = ResultStore(root)
        key = "ab" * 32
        store.put(key, {"value": 42}, kind="doctor")
        entry = store.get(key)
        if entry is None or entry.get("value") != 42:
            raise AssertionError("store round-trip failed")
        store._path(key).write_bytes(b"\x00 definitely not json \xff")
        if store.get(key) is not None:
            raise AssertionError("corrupt entry served instead of missed")
    return "round-trip works; corruption reads back as a miss"


def _check_partial() -> str:
    policy = FailurePolicy(keep_going=True, max_failure_rate=1.0)
    policy.record_success()
    policy.record_failure(
        FailureReport.from_exception(
            ModelError("doctor probe"), label="doctor", kind="doctor"
        )
    )
    if len(policy.failures) != 1 or policy.evaluated != 2:
        raise AssertionError("keep-going policy mis-counted")
    breaker = FailurePolicy(keep_going=True, max_failure_rate=0.5,
                            min_evaluated=2)
    report = FailureReport(label="doctor", kind="doctor",
                           code="REPRO-M100", message="probe")
    try:
        breaker.record_failure(report)
        breaker.record_failure(report)
    except CircuitOpenError:
        pass
    else:
        raise AssertionError("circuit breaker never tripped")
    round_trip = FailureReport.from_dict(report.to_dict())
    if round_trip != report:
        raise AssertionError("FailureReport dict round-trip lossy")
    return "failure isolation, breaker trip and report round-trip hold"


def _check_service() -> str:
    """Service plumbing: socket bind, tenants parsing, store
    writability.  The journal's round trip is ``crash-recovery``'s."""
    import json
    import socket
    from pathlib import Path

    from repro.engine.store import ResultStore
    from repro.service.tenants import TenantRegistry

    # 1. a TCP socket is bindable (ephemeral port, immediately released)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    if not port:
        raise AssertionError("could not bind an ephemeral TCP port")

    with tempfile.TemporaryDirectory(prefix="repro-doctor-svc-") as root:
        # 2. a well-formed tenants file parses; a malformed one is U102
        tenants_path = Path(root) / "tenants.json"
        tenants_path.write_text(json.dumps({"tenants": [
            {"name": "doctor", "api_key": "sk-doctor",
             "max_queued_jobs": 2, "max_cells_per_job": 64},
        ]}), encoding="utf-8")
        registry = TenantRegistry.from_file(tenants_path)
        if registry.authenticate("sk-doctor") is None:
            raise AssertionError("tenants file did not authenticate its key")
        try:
            TenantRegistry.from_file(__file__)  # python source != JSON
        except UsageError as exc:
            if exc.code != "REPRO-U102":
                raise AssertionError(
                    f"bad tenants file raised {exc.code}, not U102"
                )
        else:
            raise AssertionError("malformed tenants file accepted")

        # 3. the service's store dir is writable
        store = ResultStore(Path(root) / "store")
        store.put("cd" * 32, {"value": 1}, kind="doctor")
        if store.get("cd" * 32) is None:
            raise AssertionError("service store round-trip failed")
    return "port bindable; tenants parse; store writable"


_SERVICE_KERNEL = """
#define N 16
double a[N];
void doctor_probe(void) {
    int i;
    #pragma omp parallel for schedule(static,1)
    for (i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
}
"""


def _check_crash_recovery() -> str:
    """Crash durability: journal append/replay round-trip, torn-tail
    tolerance, idempotent re-application, and a quarantine dry run."""
    from pathlib import Path

    from repro.engine import Engine
    from repro.service.journal import Journal
    from repro.service.queue import JobQueue, JobRequest, ServiceJob
    from repro.service.tenants import TenantRegistry

    with tempfile.TemporaryDirectory(prefix="repro-doctor-crash-") as root:
        # 1. append → replay round-trips a job with stable row offsets
        journal = Journal(Path(root) / "journal")
        rows = [{"type": "cell", "kernel": "k", "threads": 2, "chunk": 1},
                {"type": "cell", "kernel": "k", "threads": 2, "chunk": 2}]
        journal.record_admit("j1", "doctor", {"source": "x"}, 2, 1.0)
        journal.record_rows("j1", 0, rows[:1])
        journal.record_rows("j1", 1, rows[1:])
        journal.record_crashes("j1", 1)
        ledger = journal.replay().get("j1")
        if ledger is None or ledger.rows != rows or ledger.crashes != 1:
            raise AssertionError("journal append/replay round-trip lost data")

        # 2. a duplicated tail record replays idempotently
        journal.record_rows("j1", 1, rows[1:])
        if journal.replay()["j1"].rows != rows:
            raise AssertionError("duplicated journal tail was re-applied")

        # 3. a torn tail (truncated final record) is tolerated
        journal.close()
        seg = journal.active_path
        raw = seg.read_bytes()
        seg.write_bytes(raw[:-7])  # chop mid-record: a crash mid-write
        torn = Journal(Path(root) / "journal")
        replayed = torn.replay().get("j1")
        if replayed is None or replayed.rows != rows:
            raise AssertionError("torn journal tail corrupted earlier rows")
        if not torn.last_replay.torn_tail:
            raise AssertionError("torn tail not detected as such")

        # 4. quarantine dry run: a job over the crash threshold fails
        #    terminally with REPRO-E105 and the queue survives
        registry = TenantRegistry.default()
        queue = JobQueue(registry, Engine(jobs=1, use_cache=False),
                         Journal(Path(root) / "wal", fsync=False),
                         concurrency=1, quarantine_after=2)
        tenant = next(iter(registry.tenants.values()))
        job = ServiceJob(tenant.name,
                         JobRequest(source=_SERVICE_KERNEL,
                                    threads=(2,), chunks=(1,)),
                         cells_total=1)
        job.crashes = 2
        if not queue._maybe_quarantine(job):
            raise AssertionError("poison job over threshold not quarantined")
        if job.status != "failed" or (job.error or {}).get("code") != \
                "REPRO-E105":
            raise AssertionError(
                f"quarantine produced {job.status}/{job.error}, "
                "expected failed/REPRO-E105"
            )
        if queue._maybe_quarantine(job) is not True:
            raise AssertionError("quarantine is not idempotent")
        queue.journal.close()
    return ("journal round-trips, tolerates torn tails, replays "
            "idempotently; poison jobs quarantine as REPRO-E105")


_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("error-codes", _check_error_codes),
    ("taxonomy-compat", _check_taxonomy),
    ("budget-guards", _check_budget_guards),
    ("degradation-ladder", _check_ladder),
    ("fault-injection", _check_faults),
    ("result-store", _check_store),
    ("partial-results", _check_partial),
    ("service-plumbing", _check_service),
    ("crash-recovery", _check_crash_recovery),
)


def run_doctor() -> list[CheckResult]:
    """Run every self-check; never raises — failures become rows."""
    results: list[CheckResult] = []
    for name, check in _CHECKS:
        try:
            detail = check()
            results.append(CheckResult(name=name, ok=True, detail=detail))
        except ReproError as exc:
            results.append(
                CheckResult(name=name, ok=False, detail=exc.one_line())
            )
        except Exception as exc:  # noqa: BLE001 - doctor reports, not raises
            results.append(
                CheckResult(
                    name=name, ok=False,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
    return results
