"""Unit tests for the machine-constant sensitivity analysis."""

import pytest

from repro.analysis.sensitivity import (
    DEFAULT_CONSTANTS,
    _constant_value,
    _with_constant,
    sensitivity,
)
from repro.kernels import heat_diffusion
from repro.machine import paper_machine


@pytest.fixture(scope="module")
def machine():
    return paper_machine()


@pytest.fixture(scope="module")
def kernel():
    return heat_diffusion(rows=5, cols=514)


class TestConstantPlumbing:
    @pytest.mark.parametrize("name", DEFAULT_CONSTANTS)
    def test_roundtrip(self, machine, name):
        value = _constant_value(machine, name)
        bumped = _with_constant(machine, name, value * 1.5 if name != "prefetch_coverage" else value * 0.5)
        assert _constant_value(bumped, name) != value

    def test_original_machine_untouched(self, machine):
        before = machine.coherence.remote_fetch_cycles
        _with_constant(machine, "remote_fetch_cycles", 999)
        assert machine.coherence.remote_fetch_cycles == before

    def test_unknown_constant(self, machine):
        with pytest.raises(KeyError):
            _with_constant(machine, "flux_capacitor", 1.21)


class TestSensitivity:
    def test_entries_cover_constants(self, machine, kernel):
        entries = sensitivity(machine, kernel, threads=2)
        assert [e.constant for e in entries] == list(DEFAULT_CONSTANTS)

    def test_heat_is_write_penalty_driven(self, machine, kernel):
        entries = {e.constant: e for e in sensitivity(machine, kernel, threads=2)}
        assert abs(entries["invalidate_cycles"].elasticity) > abs(
            entries["remote_fetch_cycles"].elasticity
        )

    def test_bad_perturbation_rejected(self, machine, kernel):
        with pytest.raises(ValueError):
            sensitivity(machine, kernel, perturbation=0.0)
        with pytest.raises(ValueError):
            sensitivity(machine, kernel, perturbation=1.5)

