"""Constraints: forbidden configurations and metric (power/energy) limits.

Two different kinds of constraint appear in the paper:

* **configuration constraints** — "dependency conditions that express
  which combinations of parameters are not allowed" (READEX ATP, §3.2.4)
  and application rank constraints (LULESH's cubic processes, §3.2.5).
  These are checked *before* evaluation: a forbidden configuration is
  never run.
* **operating constraints** — "operate within the power constraints or
  energy goals assigned by the upper layer" (§2.1).  These are checked
  *after* evaluation against the measured metrics: a configuration that
  exceeds its power cap or energy goal is infeasible (but its
  measurement is still recorded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

__all__ = ["Constraint", "ForbiddenCombination", "MetricConstraint", "ConstraintSet"]


class Constraint:
    """Base class; subclasses override one (or both) of the check methods."""

    description: str = "constraint"

    def allows_config(self, config: Mapping[str, Any]) -> bool:
        """Configuration-level check (pre-evaluation).  Default: allowed."""
        return True

    def allows_metrics(self, metrics: Mapping[str, float]) -> bool:
        """Measurement-level check (post-evaluation).  Default: allowed."""
        return True


@dataclass
class ForbiddenCombination(Constraint):
    """A predicate marking configurations that must never be evaluated."""

    predicate: Callable[[Mapping[str, Any]], bool]
    description: str = "forbidden combination"
    #: Only consulted when every one of these keys is present in the config
    #: (lets layer-specific constraints coexist in a cross-layer space).
    required_keys: Sequence[str] = ()

    def allows_config(self, config: Mapping[str, Any]) -> bool:
        if any(key not in config for key in self.required_keys):
            return True
        # The predicate returns True when the combination is FORBIDDEN.
        return not bool(self.predicate(config))


@dataclass
class MetricConstraint(Constraint):
    """An upper (or lower) bound on a measured metric."""

    metric: str
    upper: Optional[float] = None
    lower: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.upper is None and self.lower is None:
            raise ValueError("a MetricConstraint needs an upper and/or lower bound")
        if not self.description:
            parts = []
            if self.upper is not None:
                parts.append(f"{self.metric} <= {self.upper:g}")
            if self.lower is not None:
                parts.append(f"{self.metric} >= {self.lower:g}")
            self.description = " and ".join(parts)

    def allows_metrics(self, metrics: Mapping[str, float]) -> bool:
        if self.metric not in metrics:
            return True
        value = metrics[self.metric]
        if self.upper is not None and value > self.upper * (1 + 1e-9):
            return False
        if self.lower is not None and value < self.lower * (1 - 1e-9):
            return False
        return True

    @classmethod
    def power_cap(cls, watts: float) -> "MetricConstraint":
        """Convenience: measured average power must stay under ``watts``."""
        return cls(metric="power_w", upper=watts, description=f"power_w <= {watts:g} W")


@dataclass
class ConstraintSet:
    """A collection of constraints checked together."""

    constraints: List[Constraint] = field(default_factory=list)

    def add(self, constraint: Constraint) -> "ConstraintSet":
        self.constraints.append(constraint)
        return self

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def allows_config(self, config: Mapping[str, Any]) -> bool:
        return all(c.allows_config(config) for c in self.constraints)

    def allows_metrics(self, metrics: Mapping[str, float]) -> bool:
        return all(c.allows_metrics(metrics) for c in self.constraints)

    def describe(self) -> Dict[str, str]:
        return {f"c{i}": c.description for i, c in enumerate(self.constraints)}
