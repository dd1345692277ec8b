"""Duty-cycle modulation (T-states).

Bhalachandra et al. (reference [3] of the paper) improve energy
efficiency with *dynamic duty cycle modulation*: inserting forced-idle
windows so a core's effective throughput (and power) drops below what
the lowest P-state provides.  The node layer uses it as a finer/deeper
control than DVFS when a cap cannot be met otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DutyCycleSetting", "DutyCycleModulator"]

#: Discrete duty-cycle levels supported by the (simulated) hardware, as
#: fractions of time the clock is enabled.  Mirrors the 16-level MSR knob.
DUTY_LEVELS = tuple(np.round(np.linspace(1.0, 0.25, 13), 4))


@dataclass(frozen=True)
class DutyCycleSetting:
    """An applied duty-cycle level and its modelled effect."""

    level: float
    slowdown_factor: float
    power_factor: float


class DutyCycleModulator:
    """Applies duty-cycle modulation to a node's compute phases."""

    def __init__(self, overhead_fraction: float = 0.03):
        if not 0.0 <= overhead_fraction < 0.5:
            raise ValueError("overhead_fraction must be in [0, 0.5)")
        self.overhead_fraction = float(overhead_fraction)
        self._level = 1.0

    @property
    def level(self) -> float:
        return self._level

    # No src caller; kept for Table 2 duty-cycle modulation.
    @staticmethod
    def supported_levels() -> tuple:  # repro-lint: disable=RL006
        return DUTY_LEVELS

    # No src caller; kept for Table 2 duty-cycle modulation.
    def set_level(self, level: float) -> DutyCycleSetting:  # repro-lint: disable=RL006
        """Set the duty-cycle level (snapped to a supported value)."""
        if level <= 0 or level > 1:
            raise ValueError("level must be in (0, 1]")
        snapped = float(min(DUTY_LEVELS, key=lambda lv: abs(lv - level)))
        self._level = snapped
        return self.effect()

    def effect(self) -> DutyCycleSetting:
        """The modelled slowdown and dynamic-power scaling at this level.

        Compute throughput tracks the enabled fraction (plus a small
        modulation overhead); dynamic power tracks it slightly
        super-linearly because idle windows still leak.
        """
        enabled = self._level
        slowdown = (1.0 / enabled) * (1.0 + self.overhead_fraction * (1.0 - enabled))
        power = enabled + 0.1 * (1.0 - enabled)
        return DutyCycleSetting(level=enabled, slowdown_factor=slowdown, power_factor=power)

    # No src caller; kept for Table 2 duty-cycle modulation.
    def level_for_power_fraction(  # repro-lint: disable=RL006
        self, power_fraction: float
    ) -> float:
        """Smallest-slowdown level whose power factor is below a target."""
        if not 0.0 < power_fraction <= 1.0:
            raise ValueError("power_fraction must be in (0, 1]")
        for level in DUTY_LEVELS:  # descending order: least slowdown first
            power = level + 0.1 * (1.0 - level)
            if power <= power_fraction + 1e-9:
                return float(level)
        return float(DUTY_LEVELS[-1])
