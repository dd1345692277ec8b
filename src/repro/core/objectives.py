"""Objective functions over the canonical metric vocabulary.

Section 3's framing: find "the best combination of different parameters
at the distinct layers (parameter space) for an optimal solution (the
smallest runtime, the lowest power, or the lowest energy) under a system
power cap."  An :class:`Objective` turns a measured metric dictionary
into a scalar to minimise; constraint handling (the "under a power cap"
part) lives in :mod:`repro.core.constraints` and the tuner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

from repro.telemetry.metrics import METRIC_REGISTRY

__all__ = ["Objective", "WeightedObjective", "make_objective", "PENALTY_OBJECTIVE"]

#: Objective value assigned to configurations that could not be evaluated.
PENALTY_OBJECTIVE = 1.0e18


@dataclass(frozen=True)
class Objective:
    """Minimise (or maximise) a single named metric."""

    metric: str
    minimize: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if not self.metric:
            raise ValueError("metric must not be empty")
        if not self.name:
            object.__setattr__(self, "name", ("min " if self.minimize else "max ") + self.metric)

    def __call__(self, metrics: Mapping[str, float]) -> float:
        """Scalar objective value (always to be minimised by the search)."""
        if self.metric not in metrics:
            return PENALTY_OBJECTIVE
        value = float(metrics[self.metric])
        return value if self.minimize else -value

    def readable(self, objective_value: float) -> float:
        """Convert a search-space objective back to the metric's natural sign."""
        return objective_value if self.minimize else -objective_value


@dataclass(frozen=True)
class WeightedObjective:
    """A weighted combination of metrics (all normalised to 'minimise')."""

    terms: tuple  # of (Objective, weight)
    name: str = "weighted"

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("WeightedObjective needs at least one term")
        for _objective, weight in self.terms:
            if weight < 0:
                raise ValueError("weights must be >= 0")

    def __call__(self, metrics: Mapping[str, float]) -> float:
        total = 0.0
        for objective, weight in self.terms:
            value = objective(metrics)
            if value >= PENALTY_OBJECTIVE:
                return PENALTY_OBJECTIVE
            total += weight * value
        return total


#: Shorthand names accepted by :func:`make_objective` in addition to raw
#: metric names from the registry.
_ALIASES: Dict[str, tuple] = {
    "runtime": ("runtime_s", True),
    "time": ("runtime_s", True),
    "energy": ("energy_j", True),
    "power": ("power_w", True),
    "edp": ("edp", True),
    "ed2p": ("ed2p", True),
    "throughput": ("throughput_jobs_per_hour", False),
    "ipc_per_watt": ("ipc_per_watt", False),
    "flops_per_watt": ("flops_per_watt", False),
    "power_efficiency": ("flops_per_watt", False),
    "energy_efficiency": ("flops_per_joule", False),
}


def make_objective(name: str) -> Objective:
    """Build an objective from a shorthand or canonical metric name.

    The optimisation direction comes from the metric registry (§2.2):
    runtime/power/energy/EDP are minimised, efficiency and throughput
    metrics are maximised.
    """
    key = name.strip().lower()
    if key in _ALIASES:
        metric, minimize = _ALIASES[key]
        return Objective(metric=metric, minimize=minimize)
    if key in METRIC_REGISTRY:
        return Objective(metric=key, minimize=METRIC_REGISTRY[key].minimize)
    raise ValueError(
        f"unknown objective {name!r}; use one of {sorted(_ALIASES)} or a metric name "
        f"from {sorted(METRIC_REGISTRY)}"
    )
