"""Manufacturing variation model.

The paper lists manufacturing variation as one of the core reasons power
management is hard ("dynamic phase behavior, manufacturing variation, and
increasing system-level heterogeneity", §1) and one of the inputs to
power-aware node selection (§3.1.1).  Real processors of the same SKU
differ in leakage and in the frequency they reach under a power cap; this
module draws per-package variation factors so the simulated cluster shows
the same spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VariationDraw", "VariationModel"]


@dataclass(frozen=True)
class VariationDraw:
    """Variation factors for one processor package.

    ``power_efficiency`` multiplies dynamic power (values > 1 mean the
    part burns more power for the same work — a "bad" part under a power
    cap).  ``max_turbo_scale`` scales the achievable turbo frequency.
    ``leakage_scale`` scales static power.
    """

    power_efficiency: float
    max_turbo_scale: float
    leakage_scale: float

    def __post_init__(self) -> None:
        for attr in ("power_efficiency", "max_turbo_scale", "leakage_scale"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")


class VariationModel:
    """Draws correlated per-package manufacturing variation.

    Parameters
    ----------
    power_sigma:
        Relative standard deviation of dynamic power efficiency (typical
        published values are 5-15 % across a large cluster).
    turbo_sigma:
        Relative standard deviation of the achievable turbo frequency.
    leakage_sigma:
        Relative standard deviation of leakage power.
    correlation:
        Correlation between power efficiency and leakage (leaky parts
        tend to be the power-hungry parts).
    """

    def __init__(
        self,
        power_sigma: float = 0.08,
        turbo_sigma: float = 0.03,
        leakage_sigma: float = 0.15,
        correlation: float = 0.6,
    ):
        if not 0.0 <= power_sigma < 1.0:
            raise ValueError("power_sigma must be in [0, 1)")
        if not 0.0 <= turbo_sigma < 1.0:
            raise ValueError("turbo_sigma must be in [0, 1)")
        if not 0.0 <= leakage_sigma < 1.0:
            raise ValueError("leakage_sigma must be in [0, 1)")
        if not -1.0 <= correlation <= 1.0:
            raise ValueError("correlation must be in [-1, 1]")
        self.power_sigma = power_sigma
        self.turbo_sigma = turbo_sigma
        self.leakage_sigma = leakage_sigma
        self.correlation = correlation

    def draw(self, rng: np.random.Generator) -> VariationDraw:
        """Draw variation factors for a single package."""
        z_power = rng.standard_normal()
        z_leak = self.correlation * z_power + np.sqrt(
            max(0.0, 1.0 - self.correlation**2)
        ) * rng.standard_normal()
        z_turbo = rng.standard_normal()

        power_eff = float(np.clip(1.0 + self.power_sigma * z_power, 0.7, 1.4))
        leakage = float(np.clip(1.0 + self.leakage_sigma * z_leak, 0.5, 1.8))
        # Power-hungry parts tend to reach slightly lower sustained turbo.
        turbo = float(
            np.clip(1.0 + self.turbo_sigma * z_turbo - 0.02 * (power_eff - 1.0), 0.85, 1.1)
        )
        return VariationDraw(
            power_efficiency=power_eff, max_turbo_scale=turbo, leakage_scale=leakage
        )

    def draw_array(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw variation for ``count`` packages as arrays, in one shot.

        Returns ``(power_efficiency, max_turbo_scale, leakage_scale)``.
        Consumes the random stream in exactly the per-draw order of
        :meth:`draw` (one ``(count, 3)`` normal block fills row-major), so
        the arrays are bit-identical to ``count`` :meth:`draw` calls with
        the same generator state — seeded clusters stay reproducible across
        the scalar and vectorised construction paths.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        z = rng.standard_normal((count, 3))
        z_power = z[:, 0]
        z_leak = self.correlation * z_power + np.sqrt(
            max(0.0, 1.0 - self.correlation**2)
        ) * z[:, 1]
        z_turbo = z[:, 2]

        power_eff = np.clip(1.0 + self.power_sigma * z_power, 0.7, 1.4)
        leakage = np.clip(1.0 + self.leakage_sigma * z_leak, 0.5, 1.8)
        turbo = np.clip(
            1.0 + self.turbo_sigma * z_turbo - 0.02 * (power_eff - 1.0), 0.85, 1.1
        )
        return power_eff, turbo, leakage

    @staticmethod
    def nominal() -> VariationDraw:
        """A draw with no variation (for deterministic unit tests)."""
        return VariationDraw(power_efficiency=1.0, max_turbo_scale=1.0, leakage_scale=1.0)
