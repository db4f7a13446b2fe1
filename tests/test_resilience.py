"""Tests for the resilience layer: taxonomy, budgets, ladder, faults.

Covers the robustness contract documented in docs/RESILIENCE.md:

* the structured error taxonomy (stable codes, exit codes, MRO
  backwards compatibility, pickling across process boundaries);
* resource budgets with *pre-run* cost estimation;
* the graceful-degradation ladder (exact → regression → analytic) and
  its ``resilience_fallbacks_total`` accounting;
* the fault-injection harness (``REPRO_FAULTS`` plans) and the
  instrumented sites that consume it;
* partial-result semantics (failure isolation, the circuit breaker);
* the ``repro-fs doctor`` self-check;
* the end-to-end acceptance scenario: a sweep grid containing an
  unparsable kernel, budget-degraded points and an injected worker
  crash completes under ``--keep-going`` with structured failures and
  degraded-but-present results — and dies with the first failure's
  stable code under ``--fail-fast``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.frontend import FrontendError, parse_c_source
from repro.kernels import heat_source
from repro.machine import paper_machine, tiny_machine
from repro.model import FalseSharingModel, WhatIfSweep
from repro.obs import get_registry
from repro.resilience import (
    ERROR_CODES,
    EXIT_CODES,
    Budget,
    BudgetExceededError,
    CircuitOpenError,
    EngineError,
    FailurePolicy,
    FailureReport,
    FaultInjectedError,
    FaultPlan,
    ModelError,
    ReproError,
    SourceSpan,
    UsageError,
    analyze_with_ladder,
    error_from_dict,
    estimate_cost,
    fault_point,
    install_plan,
    wants_corruption,
)
from tests.conftest import make_copy_nest


def _counter_value(name: str, **labels) -> float:
    return get_registry().counter(name).labels(**labels).value


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class TestTaxonomy:
    def test_codes_are_well_formed_and_described(self):
        import re

        for code, description in ERROR_CODES.items():
            assert re.fullmatch(r"REPRO-[UFMREX]\d{3}", code), code
            assert description, f"{code} has no description"

    def test_every_category_has_an_exit_code(self):
        for category in ("usage", "frontend", "model", "resource", "engine"):
            assert EXIT_CODES[category] in (2, 3, 4, 5)

    def test_backwards_compatible_mro(self):
        # Pre-taxonomy call sites caught ValueError/RuntimeError; the
        # structured classes must keep those bases.
        assert issubclass(ModelError, ValueError)
        assert issubclass(UsageError, ValueError)
        assert issubclass(FrontendError, ValueError)
        assert issubclass(EngineError, RuntimeError)
        with pytest.raises(ValueError):
            raise ModelError("still a ValueError")
        with pytest.raises(RuntimeError):
            raise EngineError("still a RuntimeError")

    def test_exit_codes_by_class(self):
        assert ModelError("m").exit_code == 4
        assert BudgetExceededError("b").exit_code == 4  # resource
        assert EngineError("e").exit_code == 5
        assert UsageError("u").exit_code == 2
        assert FrontendError("f").exit_code == 3

    def test_one_line_rendering(self):
        err = ModelError(
            "bad trip count", hint="check the loop bounds",
            span=SourceSpan(file="k.c", line=3, column=7),
        )
        line = err.one_line()
        assert line.startswith("error[REPRO-M100] k.c:3:7: bad trip count")
        assert "hint: check the loop bounds" in line

    def test_to_dict_round_trip(self):
        err = FrontendError(
            "parse failed", code="REPRO-F001",
            span=SourceSpan(file="bad.c", line=2), context={"stage": "parse"},
        )
        clone = error_from_dict(err.to_dict())
        assert clone.code == "REPRO-F001"
        assert clone.category == "frontend"
        assert clone.span is not None and clone.span.line == 2
        assert clone.context == {"stage": "parse"}

    def test_pickling_preserves_structure(self):
        # Engine jobs cross process boundaries; their errors must too.
        err = BudgetExceededError(
            "over budget", code="REPRO-R001", context={"guard": "steps"}
        )
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is BudgetExceededError
        assert clone.code == "REPRO-R001"
        assert clone.context == {"guard": "steps"}
        assert clone.exit_code == err.exit_code

    def test_instance_code_overrides_class_code(self):
        err = ModelError("x", code="REPRO-M102")
        assert err.code == "REPRO-M102"
        assert ModelError.code == "REPRO-M100"


class TestSourceSpan:
    def test_str_forms(self):
        assert str(SourceSpan(file="a.c", line=4, column=2)) == "a.c:4:2"
        assert str(SourceSpan(file="a.c", line=4)) == "a.c:4"
        assert str(SourceSpan(file="a.c")) == "a.c"

    def test_from_parse_message(self):
        span, text = SourceSpan.from_parse_message("k.c:12:5: before: {")
        assert span == SourceSpan(file="k.c", line=12, column=5)
        assert "before" in text
        span, text = SourceSpan.from_parse_message("no location here")
        assert span is None and text == "no location here"


# ---------------------------------------------------------------------------
# Budgets and cost estimation
# ---------------------------------------------------------------------------


class TestBudget:
    def test_validation(self):
        with pytest.raises(UsageError):
            Budget(max_steps=0)
        with pytest.raises(UsageError):
            Budget(deadline_s=-1.0)
        with pytest.raises(UsageError):
            Budget(max_state_bytes=-5)

    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(max_steps=10).unlimited

    def test_steps_guard_fires_before_running(self, small_machine):
        nest = make_copy_nest(n=1024)
        estimate = estimate_cost(nest, 4, small_machine)
        assert estimate.steps == 256  # 1024 iterations / 4 threads
        with pytest.raises(BudgetExceededError) as exc_info:
            Budget(max_steps=100).check_estimate(estimate, where="copy.i")
        assert exc_info.value.code == "REPRO-R001"
        assert exc_info.value.context["guard"] == "steps"

    def test_state_guard(self, small_machine):
        nest = make_copy_nest(n=64)
        estimate = estimate_cost(nest, 4, small_machine)
        with pytest.raises(BudgetExceededError) as exc_info:
            Budget(max_state_bytes=16).check_estimate(estimate)
        assert exc_info.value.code == "REPRO-R003"

    def test_deadline_guard(self):
        budget = Budget(deadline_s=1e-9)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.check_deadline("test")
        assert exc_info.value.code == "REPRO-R002"
        assert Budget(deadline_s=3600.0).remaining_s() > 0

    def test_key_dict_round_trip(self):
        budget = Budget(deadline_s=2.5, max_steps=100)
        clone = Budget.from_key_dict(budget.to_key_dict())
        assert clone.max_steps == 100 and clone.deadline_s == 2.5
        assert Budget.from_key_dict(None) is None
        assert Budget.from_key_dict({}) is None
        # The pinned absolute deadline must NOT leak into cache keys.
        assert "deadline_at" not in budget.to_key_dict()

    def test_estimate_matches_exact_analysis(self, small_machine):
        nest = make_copy_nest(n=256)
        estimate = estimate_cost(nest, 4, small_machine)
        result = FalseSharingModel(small_machine).analyze(nest, 4)
        assert estimate.steps == result.steps_evaluated

    def test_analysis_rejects_over_budget_upfront(self, small_machine):
        nest = make_copy_nest(n=4096)
        model = FalseSharingModel(small_machine)
        with pytest.raises(BudgetExceededError):
            model.analyze(nest, 4, budget=Budget(max_steps=8))


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------


class TestLadder:
    def test_exact_when_unbudgeted(self, small_machine):
        nest = make_copy_nest(n=128)
        outcome = analyze_with_ladder(small_machine, nest, 4, prefer="exact")
        assert outcome.fidelity == "exact"
        assert not outcome.degraded
        exact = FalseSharingModel(small_machine).analyze(nest, 4)
        assert outcome.fs_cases == float(exact.fs_cases)

    def test_falls_back_to_regression(self, small_machine):
        nest = make_copy_nest(n=1024, chunk=4)
        before = _counter_value(
            "resilience_fallbacks_total", level="regression"
        )
        outcome = analyze_with_ladder(
            small_machine, nest, 4, prefer="exact",
            budget=Budget(max_steps=64),
        )
        assert outcome.fidelity == "regression"
        assert outcome.requested == "exact"
        assert outcome.degraded
        assert "over budget" in outcome.degradation
        after = _counter_value(
            "resilience_fallbacks_total", level="regression"
        )
        assert after == before + 1

    def test_falls_back_to_analytic(self, small_machine):
        # chunk so large every chunk run exceeds the budget: not even a
        # one-run regression prefix fits, only the closed form remains.
        nest = make_copy_nest(n=1024, chunk=256)
        before = _counter_value("resilience_fallbacks_total", level="analytic")
        outcome = analyze_with_ladder(
            small_machine, nest, 4, prefer="exact", budget=Budget(max_steps=8)
        )
        assert outcome.fidelity == "analytic"
        assert outcome.degraded
        after = _counter_value("resilience_fallbacks_total", level="analytic")
        assert after == before + 1

    def test_analytic_is_an_upper_bound(self, small_machine):
        nest = make_copy_nest(n=256)
        exact = analyze_with_ladder(small_machine, nest, 4, prefer="exact")
        bound = analyze_with_ladder(small_machine, nest, 4, prefer="analytic")
        assert bound.fs_cases >= exact.fs_cases
        assert bound.fs_write_fraction == 1.0  # conservative all-write split

    def test_ladder_never_raises_for_budget_reasons(self, small_machine):
        nest = make_copy_nest(n=4096)
        outcome = analyze_with_ladder(
            small_machine, nest, 8, prefer="exact",
            budget=Budget(max_steps=1),
        )
        assert outcome.fidelity in ("regression", "analytic")

    def test_model_errors_still_propagate(self, small_machine):
        nest = make_copy_nest(n=64)
        with pytest.raises(ModelError):
            analyze_with_ladder(
                small_machine, nest, 0, prefer="exact"  # invalid threads
            )
        with pytest.raises(ValueError):
            analyze_with_ladder(small_machine, nest, 4, prefer="bogus")


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_env_syntax(self):
        plan = FaultPlan.parse(
            "frontend.parse:raise:match=bad.c,engine.job:latency:delay=0.01"
        )
        assert len(plan.specs) == 2
        assert plan.specs[0].site == "frontend.parse"
        assert plan.specs[0].match == "bad.c"
        assert plan.specs[1].delay_s == 0.01

    def test_malformed_specs_rejected(self):
        with pytest.raises(UsageError):
            FaultPlan.parse("no-action")
        with pytest.raises(UsageError):
            FaultPlan.parse("site:explode")
        with pytest.raises(UsageError):
            FaultPlan.parse("site:raise:times=banana")

    def test_raise_action_fires(self):
        with install_plan(FaultPlan.parse("my.site:raise")):
            with pytest.raises(FaultInjectedError) as exc_info:
                fault_point("my.site", label="x")
            assert exc_info.value.code == "REPRO-X901"

    def test_match_filters_by_label(self):
        with install_plan(FaultPlan.parse("my.site:raise:match=bad")):
            fault_point("my.site", label="good-kernel")  # no fire
            with pytest.raises(FaultInjectedError):
                fault_point("my.site", label="bad-kernel")

    def test_times_bounds_firings(self):
        with install_plan(FaultPlan.parse("my.site:raise:times=2")):
            for _ in range(2):
                with pytest.raises(FaultInjectedError):
                    fault_point("my.site")
            fault_point("my.site")  # budget exhausted: no fire

    def test_deterministic_probability(self):
        plan = FaultPlan.parse("my.site:raise:p=0.5")
        spec = plan.specs[0]
        first = spec.should_fire("my.site", "some-label")
        for _ in range(5):
            assert spec.should_fire("my.site", "some-label") == first
        # p=0 never fires, p=1 always fires.
        assert not FaultPlan.parse("s:raise:p=0").specs[0].should_fire("s", "x")
        assert FaultPlan.parse("s:raise:p=1").specs[0].should_fire("s", "x")

    def test_env_plan_resolution(self, monkeypatch):
        from repro.resilience.faults import active_plan

        monkeypatch.setenv("REPRO_FAULTS", "env.site:raise")
        plan = active_plan()
        assert plan is not None and plan.specs[0].site == "env.site"
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert active_plan() is None

    def test_no_plan_is_a_noop(self):
        fault_point("any.site", label="whatever")
        assert not wants_corruption("any.site")

    def test_frontend_parse_site(self):
        with install_plan(FaultPlan.parse("frontend.parse:raise")):
            with pytest.raises(FaultInjectedError):
                parse_c_source(heat_source(6, 20))


class TestStoreFaults:
    def test_corrupt_on_get_is_a_miss(self, tmp_path):
        from repro.engine.store import ResultStore

        store = ResultStore(tmp_path)
        key = "cd" * 32
        store.put(key, {"v": 1}, kind="test")
        with install_plan(FaultPlan.parse("store.get:corrupt")):
            assert store.get(key) is None  # garbled, dropped, miss
        assert store.get(key) is None  # entry was unlinked

    def test_corrupt_on_put_then_get_recovers(self, tmp_path):
        from repro.engine.store import ResultStore

        store = ResultStore(tmp_path)
        key = "ef" * 32
        with install_plan(FaultPlan.parse("store.put:corrupt")):
            store.put(key, {"v": 2}, kind="test")
        assert store.get(key) is None  # torn write reads as a miss
        store.put(key, {"v": 2}, kind="test")
        assert store.get(key) == {"v": 2}


# ---------------------------------------------------------------------------
# Partial results and the circuit breaker
# ---------------------------------------------------------------------------


class TestFailureReport:
    def test_from_exception_structured(self):
        report = FailureReport.from_exception(
            ModelError("boom", code="REPRO-M102"),
            label="whatif:k:t4c2", kind="sweep.point",
            point={"threads": 4, "chunk": 2},
        )
        assert report.code == "REPRO-M102"
        assert report.point == {"threads": 4, "chunk": 2}
        assert "[REPRO-M102] whatif:k:t4c2: boom" in report.one_line()

    def test_from_exception_unstructured(self):
        report = FailureReport.from_exception(
            KeyError("oops"), label="x", kind="k"
        )
        assert report.code == "REPRO-X000"
        assert "KeyError" in report.message

    def test_dict_round_trip(self):
        report = FailureReport(
            label="a", kind="b", code="REPRO-E102", message="died",
            attempts=3, retry_history=("died", "died"),
            point={"threads": 2},
        )
        assert FailureReport.from_dict(report.to_dict()) == report


class TestFailurePolicy:
    def test_keep_going_collects(self):
        policy = FailurePolicy(keep_going=True, max_failure_rate=1.0)
        policy.record_success()
        policy.record_failure(
            FailureReport(label="p", kind="k", code="REPRO-M100", message="m")
        )
        assert len(policy.failures) == 1
        assert policy.evaluated == 2
        assert policy.failure_rate == 0.5

    def test_fail_fast_reraises_cause(self):
        policy = FailurePolicy(keep_going=False)
        cause = ModelError("original")
        report = FailureReport.from_exception(cause, label="p", kind="k")
        with pytest.raises(ModelError, match="original"):
            policy.record_failure(report, cause=cause)

    def test_circuit_breaker_trips(self):
        policy = FailurePolicy(
            keep_going=True, max_failure_rate=0.5, min_evaluated=4
        )
        report = FailureReport(
            label="p", kind="k", code="REPRO-M100", message="m"
        )
        policy.record_success()
        policy.record_failure(report)  # 1/2 = 50%, under min_evaluated
        policy.record_failure(report)  # 2/3 = 66%, still under min
        with pytest.raises(CircuitOpenError) as exc_info:
            policy.record_failure(report)  # 3/4 = 75% > 50%: trip
        assert exc_info.value.code == "REPRO-E201"
        assert exc_info.value.context["failures"] == 3

    def test_breaker_disabled_at_one(self):
        policy = FailurePolicy(keep_going=True, max_failure_rate=1.0)
        report = FailureReport(
            label="p", kind="k", code="REPRO-M100", message="m"
        )
        for _ in range(20):
            policy.record_failure(report)
        assert len(policy.failures) == 20

    def test_validation(self):
        with pytest.raises(UsageError):
            FailurePolicy(max_failure_rate=1.5)
        with pytest.raises(UsageError):
            FailurePolicy(min_evaluated=0)


class TestSweepPartialResults:
    def test_serial_sweep_isolates_bad_points(self, small_machine):
        # A tight budget plus keep-going: every point completes (the
        # ladder degrades rather than failing), failures stay empty.
        nest = make_copy_nest(n=256)
        sweep = WhatIfSweep(
            small_machine, use_predictor=False, predictor_runs=4
        )
        policy = FailurePolicy(keep_going=True, max_failure_rate=1.0)
        result = sweep.sweep(
            nest, threads=(2, 4), chunks=(1, 8),
            budget=Budget(max_steps=16), policy=policy,
        )
        assert len(result.points) == 4
        assert result.failures == ()
        assert len(result.degraded_points) >= 1

    def test_inline_sweep_counts_each_fallback_once(
        self, small_machine, tmp_path
    ):
        """At ``jobs=1`` the ladder counts each degraded point where it
        runs; the sweep adds only the store-served ones."""
        from repro.engine import Engine, ResultStore

        nest = make_copy_nest(n=1024)
        sweep = WhatIfSweep(
            small_machine, use_predictor=False, predictor_runs=4
        )
        grid = dict(threads=(2, 4), chunks=(1, 4), budget=Budget(max_steps=64))
        store = ResultStore(tmp_path)
        before = _counter_value("resilience_fallbacks_total", level="regression")
        cold = sweep.sweep(nest, engine=Engine(jobs=1, store=store), **grid)
        assert [p.fidelity for p in cold.points] == ["regression"] * 4
        after_cold = _counter_value(
            "resilience_fallbacks_total", level="regression"
        )
        assert after_cold == before + 4
        warm = sweep.sweep(nest, engine=Engine(jobs=1, store=store), **grid)
        assert warm.reuse.disk_hits == 4
        assert _counter_value(
            "resilience_fallbacks_total", level="regression"
        ) == after_cold + 4

    def test_strict_sweep_raises_the_engine_error(self, small_machine):
        nest = make_copy_nest(n=256, name="copystrict.i")
        sweep = WhatIfSweep(small_machine, predictor_runs=4)
        with install_plan(FaultPlan.parse("engine.job:raise:match=t4c8")):
            with pytest.raises(EngineError) as exc:
                sweep.sweep(nest, threads=(2, 4), chunks=(1, 8))
        assert exc.value.code == "REPRO-X901"

    def test_keep_going_isolates_any_exception(
        self, small_machine, monkeypatch
    ):
        import repro.model.whatif as whatif

        real = whatif.evaluate_point

        def flaky(machine, nest, threads, chunk, **kwargs):
            if (threads, chunk) == (4, 8):
                raise ZeroDivisionError("not a ReproError")
            return real(machine, nest, threads, chunk, **kwargs)

        monkeypatch.setattr(whatif, "evaluate_point", flaky)
        policy = FailurePolicy(keep_going=True, max_failure_rate=1.0)
        result = WhatIfSweep(small_machine, predictor_runs=4).sweep(
            make_copy_nest(n=256), threads=(2, 4), chunks=(1, 8),
            policy=policy,
        )
        assert len(result.points) == 3
        (failure,) = result.failures
        assert failure.point == {"threads": 4, "chunk": 8}
        assert "ZeroDivisionError" in failure.message

    def test_engine_sweep_isolates_injected_failures(self, small_machine):
        from repro.engine import Engine

        nest = make_copy_nest(n=256, name="copyfail.i")
        sweep = WhatIfSweep(small_machine, predictor_runs=4)
        policy = FailurePolicy(keep_going=True, max_failure_rate=1.0)
        with install_plan(
            FaultPlan.parse("engine.job:raise:match=t4c8")
        ):
            result = sweep.sweep(
                nest, threads=(2, 4), chunks=(1, 8),
                engine=Engine(jobs=1, use_cache=False), policy=policy,
            )
        assert len(result.points) == 3
        assert len(result.failures) == 1
        assert result.failures[0].code == "REPRO-X901"
        assert result.failures[0].point == {"threads": 4, "chunk": 8}


# ---------------------------------------------------------------------------
# Doctor
# ---------------------------------------------------------------------------


class TestDoctor:
    def test_all_checks_pass(self):
        from repro.resilience.doctor import run_doctor

        results = run_doctor()
        assert len(results) >= 7
        failed = [c for c in results if not c.ok]
        assert not failed, "\n".join(c.one_line() for c in failed)

    def test_cli_doctor_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out


# ---------------------------------------------------------------------------
# End-to-end acceptance scenario (the ISSUE's contract)
# ---------------------------------------------------------------------------


@pytest.fixture
def grid_files(tmp_path):
    good = tmp_path / "good.c"
    good.write_text(heat_source(6, 130))
    bad = tmp_path / "bad.c"
    bad.write_text("void broken( { this is not C ;;;\n")
    return str(good), str(bad)


class TestAcceptance:
    def test_keep_going_sweep_survives_everything(
        self, grid_files, monkeypatch, capsys
    ):
        from repro.cli import main

        good, bad = grid_files
        # Inject a worker crash for exactly one grid point; run with 2
        # workers so the crash is isolated by the pool, not by pytest.
        monkeypatch.setenv("REPRO_FAULTS", "engine.job:crash:match=t4c8")
        rc = main([
            "sweep", good, bad,
            "--threads-list", "2,4", "--chunks-list", "1,8",
            "--exact", "--max-iters", "200", "--jobs", "2",
            "--keep-going", "--no-cache",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        # (a) the unparsable kernel is one isolated frontend failure...
        assert "[REPRO-F001]" in captured.err
        # (b) ...the crashed worker another, engine-coded one...
        assert "[REPRO-E102]" in captured.err
        assert "2 of" in captured.err and "failed (isolated)" in captured.err
        # (c) ...and over-budget points degraded to the regression level
        # instead of failing.
        assert "-> regression" in captured.out
        assert "exact analysis over budget" in captured.out
        assert "best:" in captured.out
        # The degradations are visible in metrics, not only in prose.
        assert _counter_value(
            "resilience_fallbacks_total", level="regression"
        ) >= 1

    def test_fail_fast_dies_with_first_structured_code(
        self, grid_files, monkeypatch, capsys
    ):
        from repro.cli import main

        good, bad = grid_files
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_LOG", raising=False)
        rc = main([
            "sweep", good, bad,
            "--threads-list", "2,4", "--chunks-list", "1,8",
            "--fail-fast", "--no-cache",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_CODES["frontend"] == 3
        assert "[REPRO-F001]" in captured.err

    def test_debug_env_reraises(self, grid_files, monkeypatch):
        from repro.cli import main

        _, bad = grid_files
        monkeypatch.setenv("REPRO_LOG", "debug")
        with pytest.raises(FrontendError):
            main(["analyze", bad])

    def test_frontend_error_carries_span(self, grid_files):
        _, bad = grid_files
        with open(bad, encoding="utf-8") as fh:
            source = fh.read()
        with pytest.raises(FrontendError) as exc_info:
            parse_c_source(source)
        err = exc_info.value
        assert err.code == "REPRO-F001"
        assert err.span is not None and err.span.line == 1
