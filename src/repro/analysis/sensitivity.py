"""Sensitivity analysis: which machine constants actually matter?

The cost-model constants in :mod:`repro.machine` are calibrated, not
published by the paper (deviation note 5).  A reproduction leaning on
unpublished constants owes the reader an elasticity analysis: perturb
each constant and report how much the headline output — the modeled FS
percentage of Eq. (5) — moves.

``Elasticity`` here is the standard log-derivative approximation:
``(Δoutput/output) / (Δinput/input)`` for a given relative perturbation.
Constants with |elasticity| ≪ 1 are not load-bearing; constants near or
above 1 deserve the calibration harness's scrutiny (they get it — see
:mod:`repro.machine.calibrate`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.costmodels import TotalCostModel
from repro.engine import Engine, Job, nest_digest
from repro.kernels.base import KernelInstance
from repro.machine import MachineConfig
from repro.model import FalseSharingModel, fs_overhead_percent


@dataclass(frozen=True)
class SensitivityEntry:
    """Elasticity of the modeled FS% to one machine constant."""

    constant: str
    base_value: float
    base_output: float
    perturbed_output: float
    elasticity: float


def _with_constant(machine: MachineConfig, name: str, value: float) -> MachineConfig:
    """Return a copy of ``machine`` with one named constant replaced."""
    if name in ("remote_fetch_cycles", "invalidate_cycles", "upgrade_cycles"):
        return dataclasses.replace(
            machine,
            coherence=dataclasses.replace(machine.coherence, **{name: int(value)}),
        )
    if name == "prefetch_coverage":
        return dataclasses.replace(machine, prefetch_coverage=float(value))
    if name == "mem_latency_cycles":
        return dataclasses.replace(machine, mem_latency_cycles=int(value))
    if name == "call_latency":
        table = dict(machine.op_latencies.table)
        table["call"] = int(value)
        return dataclasses.replace(
            machine,
            op_latencies=dataclasses.replace(machine.op_latencies, table=table),
        )
    raise KeyError(f"unknown constant {name!r}")


def _constant_value(machine: MachineConfig, name: str) -> float:
    if name in ("remote_fetch_cycles", "invalidate_cycles", "upgrade_cycles"):
        return float(getattr(machine.coherence, name))
    if name == "prefetch_coverage":
        return machine.prefetch_coverage
    if name == "mem_latency_cycles":
        return float(machine.mem_latency_cycles)
    if name == "call_latency":
        return float(machine.op_latencies["call"])
    raise KeyError(name)


#: Constants the analysis perturbs by default.
DEFAULT_CONSTANTS = (
    "remote_fetch_cycles",
    "invalidate_cycles",
    "mem_latency_cycles",
    "call_latency",
    "prefetch_coverage",
)


def modeled_percent(
    machine: MachineConfig, kernel: KernelInstance, threads: int
) -> float:
    """The Eq. (5) modeled FS% for a kernel on a machine."""
    model = FalseSharingModel(machine)
    tm = TotalCostModel(machine)
    r_fs = model.analyze(kernel.nest, threads, chunk=kernel.fs_chunk)
    r_nfs = model.analyze(kernel.nest, threads, chunk=kernel.nfs_chunk)
    return fs_overhead_percent(
        r_fs, r_nfs, machine, kernel.reference_nest, tm
    ).percent


def output_job(
    machine: MachineConfig, kernel: KernelInstance, threads: int, label: str = ""
) -> Job:
    """An engine job evaluating :func:`modeled_percent` for one machine.

    Perturbations are expressed by passing an already-perturbed
    ``machine`` — its canonical key dict carries the changed constant,
    so each perturbation memoizes under its own cache key.
    """
    return Job(
        kind="sensitivity.output",
        spec={
            "kernel_sha256": nest_digest(kernel.nest),
            "reference_sha256": nest_digest(kernel.reference_nest),
            "fs_chunk": kernel.fs_chunk,
            "nfs_chunk": kernel.nfs_chunk,
            "machine": machine.to_key_dict(),
            "threads": threads,
        },
        payload={"machine": machine, "kernel": kernel},
        label=label or f"sensitivity:{kernel.name}:t{threads}",
    )


def run_output_job(job) -> dict:
    """Engine runner for ``sensitivity.output`` jobs."""
    percent = modeled_percent(
        job.payload["machine"], job.payload["kernel"], int(job.spec["threads"])
    )
    return {"percent": float(percent)}


def sensitivity(
    machine: MachineConfig,
    kernel: KernelInstance,
    threads: int = 4,
    constants: tuple[str, ...] = DEFAULT_CONSTANTS,
    perturbation: float = 0.25,
    engine: Engine | None = None,
) -> list[SensitivityEntry]:
    """Elasticity of the modeled FS% to each constant.

    The base machine and every perturbed one are independent engine
    jobs (:func:`output_job`), evaluated by one ``engine.run``: they
    share no state, so they parallelize perfectly and memoize per
    perturbed config.

    Parameters
    ----------
    perturbation:
        Relative bump applied to each constant (default +25%).
    engine:
        The engine that evaluates the jobs; without one they run
        inline, uncached (``Engine(jobs=1, use_cache=False)``).
    """
    if not 0 < perturbation < 1:
        raise ValueError("perturbation must be in (0, 1)")
    if engine is None:
        engine = Engine(jobs=1, use_cache=False)

    plan: list[tuple[str, float, float, MachineConfig]] = []
    for name in constants:
        base_value = _constant_value(machine, name)
        if name == "prefetch_coverage":
            # Bounded in [0, 1]: perturb downward instead.
            new_value = base_value * (1 - perturbation)
            rel_in = -perturbation
        else:
            new_value = base_value * (1 + perturbation)
            rel_in = perturbation
        plan.append(
            (name, base_value, rel_in, _with_constant(machine, name, new_value))
        )

    jobs = [output_job(machine, kernel, threads, f"sensitivity:{kernel.name}:base")]
    jobs += [
        output_job(m, kernel, threads, f"sensitivity:{kernel.name}:{name}")
        for name, _, _, m in plan
    ]
    docs = engine.run_strict(jobs)
    base_output = docs[0]["percent"]

    entries = []
    for (name, base_value, rel_in, _), doc in zip(plan, docs[1:]):
        perturbed = doc["percent"]
        rel_out = (
            (perturbed - base_output) / base_output if base_output else 0.0
        )
        entries.append(
            SensitivityEntry(
                constant=name,
                base_value=base_value,
                base_output=base_output,
                perturbed_output=perturbed,
                elasticity=rel_out / rel_in,
            )
        )
    return entries
