"""Unit tests for the machine-constant sensitivity analysis."""

import pytest

from repro.analysis.sensitivity import (
    DEFAULT_CONSTANTS,
    _constant_value,
    _with_constant,
    sensitivity,
)
from repro.kernels import dft, heat_diffusion
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



@pytest.fixture(scope="module")
def elasticities(machine):
    """Elasticity per constant at T=4 for heat 6×1026 and DFT 4×768."""
    kernels = {
        "heat": heat_diffusion(rows=6, cols=1026),
        "dft": dft(samples=4, freqs=768),
    }
    return {
        name: {e.constant: e.elasticity for e in sensitivity(machine, k, 4)}
        for name, k in kernels.items()
    }


class TestElasticityClaims:
    """The constants move the modeled FS% the way the physics says."""

    def test_dft_is_read_penalty_driven(self, elasticities):
        # DFT's FS is read-type: the read transfer drives it, the
        # invalidation does not (heat's ordering is the opposite).
        dft_e = elasticities["dft"]
        assert abs(dft_e["remote_fetch_cycles"]) > abs(
            dft_e["invalidate_cycles"]
        )

    def test_dft_call_latency_dilutes(self, elasticities):
        # Trig compute dilutes DFT's percentage: more call latency, a
        # smaller FS share.
        assert elasticities["dft"]["call_latency"] < 0

    def test_every_elasticity_bounded(self, elasticities):
        # Nothing explodes (|e| <= 1 is proportional).
        for per_constant in elasticities.values():
            for value in per_constant.values():
                assert abs(value) < 1.5
