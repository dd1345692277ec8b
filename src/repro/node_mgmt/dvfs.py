"""DVFS governors for node-level frequency control.

A governor owns the frequency knob of a node and implements one of the
standard policies.  Job-level runtimes either bypass the governor (pin a
frequency through :meth:`DvfsGovernor.pin`) or let it adapt, which is the
"node manager" behaviour the paper's node layer describes.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.hardware.node import Node
from repro.hardware.workload import PhaseDemand

__all__ = ["GovernorPolicy", "DvfsGovernor"]


class GovernorPolicy(str, Enum):
    """Standard cpufreq-style governor policies."""

    PERFORMANCE = "performance"
    POWERSAVE = "powersave"
    ONDEMAND = "ondemand"
    USERSPACE = "userspace"


class DvfsGovernor:
    """Controls a node's core frequency according to a policy."""

    def __init__(self, node: Node, policy: GovernorPolicy = GovernorPolicy.PERFORMANCE):
        self.node = node
        self._policy = policy
        self._pinned_ghz: Optional[float] = None
        self.apply_policy()

    @property
    def policy(self) -> GovernorPolicy:
        return self._policy

    # No src caller; kept for Table 2 DVFS governor.
    @property
    def pinned_ghz(self) -> Optional[float]:  # repro-lint: disable=RL006
        return self._pinned_ghz

    def set_policy(self, policy: GovernorPolicy) -> None:
        self._policy = policy
        if policy is not GovernorPolicy.USERSPACE:
            self._pinned_ghz = None
        self.apply_policy()

    # No src caller; kept for Table 2 DVFS governor.
    def pin(self, freq_ghz: float) -> float:  # repro-lint: disable=RL006
        """Pin a fixed frequency (switches to the userspace policy)."""
        self._policy = GovernorPolicy.USERSPACE
        granted = self.node.set_frequency(freq_ghz)
        self._pinned_ghz = granted
        return granted

    # No src caller; kept for Table 2 DVFS governor.
    def unpin(self) -> None:  # repro-lint: disable=RL006
        """Return to the performance policy."""
        self.set_policy(GovernorPolicy.PERFORMANCE)

    def apply_policy(self) -> float:
        """Apply the current policy's static frequency choice."""
        spec = self.node.spec.cpu
        if self._policy is GovernorPolicy.PERFORMANCE:
            return self.node.set_frequency(spec.freq_max_ghz)
        if self._policy is GovernorPolicy.POWERSAVE:
            return self.node.set_frequency(spec.freq_min_ghz)
        if self._policy is GovernorPolicy.USERSPACE and self._pinned_ghz is not None:
            return self.node.set_frequency(self._pinned_ghz)
        # ONDEMAND starts at base frequency and adapts per phase.
        return self.node.set_frequency(spec.freq_base_ghz)

    # No src caller; kept for Table 2 DVFS governor.
    def adapt(self, demand: PhaseDemand) -> float:  # repro-lint: disable=RL006
        """Ondemand-style adaptation: pick a frequency matched to the phase.

        Memory- and communication-bound phases gain nothing from high core
        frequency, so the governor backs off; compute-bound phases get the
        maximum.  Returns the granted frequency.  Only active under the
        ONDEMAND policy — other policies return their static choice.
        """
        if self._policy is not GovernorPolicy.ONDEMAND:
            return self.node.packages[0].frequency_ghz
        spec = self.node.spec.cpu
        sensitivity = demand.core_fraction  # fraction of time that scales with f
        freq = spec.freq_min_ghz + sensitivity * (spec.freq_max_ghz - spec.freq_min_ghz)
        return self.node.set_frequency(freq)
