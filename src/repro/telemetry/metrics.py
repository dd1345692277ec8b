"""Canonical metric definitions (paper §2.2) and derived-metric arithmetic.

Every layer of the PowerStack reports and optimises a subset of the same
metric vocabulary; keeping the definitions in one registry lets the
survey table (Table 1) and the objective functions of the tuner share a
single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping

__all__ = [
    "MetricKind",
    "Metric",
    "METRIC_REGISTRY",
    "derived_metrics",
    "energy_delay_product",
    "energy_delay_squared_product",
]


class MetricKind(str, Enum):
    """Whether a metric is directly measured or derived from others."""

    MEASURED = "measured"
    DERIVED = "derived"


@dataclass(frozen=True)
class Metric:
    """A named metric with unit, direction, and provenance."""

    name: str
    unit: str
    kind: MetricKind
    #: True when smaller values are better (runtime, power, energy ...).
    minimize: bool
    description: str


def _registry() -> Dict[str, Metric]:
    metrics = [
        Metric("power_w", "W", MetricKind.MEASURED, True, "Job/node/system power usage"),
        Metric("energy_j", "J", MetricKind.MEASURED, True, "Energy usage over the run"),
        Metric("runtime_s", "s", MetricKind.MEASURED, True, "Execution time / time to solution"),
        Metric("frequency_ghz", "GHz", MetricKind.MEASURED, False, "Operating frequency"),
        Metric("flops", "FLOP/s", MetricKind.MEASURED, False, "Floating-point throughput"),
        Metric("ipc", "instr/cycle", MetricKind.MEASURED, False, "Instructions per cycle"),
        Metric("ips", "instr/s", MetricKind.DERIVED, False, "Instructions per second"),
        Metric("flops_per_watt", "FLOP/s/W", MetricKind.DERIVED, False, "Power efficiency"),
        Metric("ipc_per_watt", "IPC/W", MetricKind.DERIVED, False, "Power efficiency (IPC basis)"),
        Metric("edp", "J*s", MetricKind.DERIVED, True, "Energy-delay product"),
        Metric("ed2p", "J*s^2", MetricKind.DERIVED, True, "Energy-delay-squared product"),
        Metric("flops_per_joule", "FLOP/J", MetricKind.DERIVED, False, "Energy efficiency"),
        Metric("ipc_per_joule", "IPC/J", MetricKind.DERIVED, False, "Energy efficiency (IPC basis)"),
        Metric("node_utilization", "%", MetricKind.MEASURED, False, "Fraction of nodes in use"),
        Metric("throughput_jobs_per_hour", "jobs/h", MetricKind.DERIVED, False, "Job throughput"),
        Metric("queue_wait_s", "s", MetricKind.MEASURED, True, "Job queuing delay"),
        Metric("turnaround_s", "s", MetricKind.MEASURED, True, "Job turnaround time"),
        Metric("temperature_c", "degC", MetricKind.MEASURED, True, "Package temperature"),
        Metric("power_cap_violations", "count", MetricKind.DERIVED, True, "Budget/corridor violations"),
    ]
    return {m.name: m for m in metrics}


#: The canonical metric registry keyed by metric name.
METRIC_REGISTRY: Dict[str, Metric] = _registry()


def energy_delay_product(energy_j: float, runtime_s: float) -> float:
    """EDP = E * t (paper §2.2 'Energy efficiency (ED...)')."""
    if energy_j < 0 or runtime_s < 0:
        raise ValueError("energy and runtime must be >= 0")
    return energy_j * runtime_s


def energy_delay_squared_product(energy_j: float, runtime_s: float) -> float:
    """ED2P = E * t^2."""
    if energy_j < 0 or runtime_s < 0:
        raise ValueError("energy and runtime must be >= 0")
    return energy_j * runtime_s * runtime_s


def derived_metrics(measured: Mapping[str, float]) -> Dict[str, float]:
    """Compute every derivable metric from a mapping of measured values.

    Unknown inputs are ignored; a derived metric is emitted only when all
    of its inputs are present.
    """
    out: Dict[str, float] = {}
    energy = measured.get("energy_j")
    runtime = measured.get("runtime_s")
    power = measured.get("power_w")
    flops = measured.get("flops")
    ipc = measured.get("ipc")
    freq = measured.get("frequency_ghz")

    if energy is not None and runtime is not None:
        out["edp"] = energy_delay_product(energy, runtime)
        out["ed2p"] = energy_delay_squared_product(energy, runtime)
    if power is not None and power > 0:
        if flops is not None:
            out["flops_per_watt"] = flops / power
        if ipc is not None:
            out["ipc_per_watt"] = ipc / power
    if energy is not None and energy > 0:
        if flops is not None and runtime is not None:
            out["flops_per_joule"] = flops * runtime / energy
        if ipc is not None and runtime is not None:
            out["ipc_per_joule"] = ipc * runtime / energy
    if ipc is not None and freq is not None:
        out["ips"] = ipc * freq * 1e9
    return out
