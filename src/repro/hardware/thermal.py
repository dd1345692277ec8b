"""First-order RC thermal model for processor packages.

Thermal-constrained performance optimisation and thermal-aware node
selection ("thermal hot spots", §2.1 and §3.1.1) need die temperatures
that respond to power over time.  A single-pole RC model is sufficient to
reproduce the qualitative behaviour: temperature rises toward
``ambient + R * power`` with time constant ``R * C``.

The model's mutable state (die temperature, per-node ambient offset) can
be *bound* to cells of a :class:`~repro.hardware.state.ClusterState`, so
a whole cluster's temperatures live in one array and advance in a single
vectorised step (:meth:`ClusterState.advance_thermal`) while this class
keeps providing the per-package scalar view.  Standalone models own a
private one-element backing array and behave exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["ThermalSpec", "ThermalModel"]


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal parameters of a package and its cooling solution."""

    #: Thermal resistance junction-to-ambient (K/W).
    resistance_k_per_w: float = 0.25
    #: Thermal capacitance (J/K).
    capacitance_j_per_k: float = 120.0
    #: Ambient (inlet) temperature (degC).
    ambient_c: float = 24.0
    #: Throttling trip temperature (degC).
    throttle_temp_c: float = 95.0
    #: Critical shutdown temperature (degC).
    critical_temp_c: float = 105.0

    def __post_init__(self) -> None:
        if self.resistance_k_per_w <= 0 or self.capacitance_j_per_k <= 0:
            raise ValueError("thermal resistance and capacitance must be positive")
        if not self.ambient_c < self.throttle_temp_c < self.critical_temp_c:
            raise ValueError("require ambient < throttle < critical temperatures")

    @property
    def time_constant_s(self) -> float:
        return self.resistance_k_per_w * self.capacitance_j_per_k


class ThermalModel:
    """Tracks the die temperature of one package.

    ``temps``/``offsets``/``index`` bind the model to shared state arrays
    (the cluster kernel passes slices of ``pkg_temperature_c`` /
    ``pkg_ambient_offset_c``); when omitted the model allocates its own
    one-element arrays.
    """

    def __init__(
        self,
        spec: ThermalSpec | None = None,
        ambient_offset_c: float = 0.0,
        temps: Optional[np.ndarray] = None,
        offsets: Optional[np.ndarray] = None,
        index: Optional[Tuple[int, int]] = None,
        version_owner=None,
    ):
        self.spec = spec or ThermalSpec()
        if temps is None:
            temps = np.zeros((1, 1))
            offsets = np.zeros((1, 1))
            index = (0, 0)
        if offsets is None or index is None:
            raise ValueError("temps, offsets and index must be given together")
        self._temps = temps
        self._offsets = offsets
        self._index = index
        #: Holder of a ``power_inputs_version`` counter (the owning
        #: ClusterState) bumped on every temperature/offset write so
        #: idle-power memoisation can key on an integer.
        self._version_owner = version_owner
        self._offsets[self._index] = float(ambient_offset_c)
        self._temps[self._index] = self.ambient_c
        self._bump_version()

    def _bump_version(self) -> None:
        if self._version_owner is not None:
            self._version_owner.power_inputs_version += 1

    @property
    def ambient_offset_c(self) -> float:
        """Per-node ambient offset (models rack/row hot spots)."""
        return float(self._offsets[self._index])

    @ambient_offset_c.setter
    def ambient_offset_c(self, value: float) -> None:
        self._offsets[self._index] = float(value)
        self._bump_version()

    @property
    def ambient_c(self) -> float:
        return self.spec.ambient_c + self.ambient_offset_c

    @property
    def temperature_c(self) -> float:
        """Current die temperature (degC)."""
        return float(self._temps[self._index])

    def advance(self, power_w: float, dt_s: float) -> float:
        """Advance the model ``dt_s`` seconds at constant power; return temp.

        One step toward the steady state ``ambient + R * power``: one cell
        read, one write and one version bump.
        """
        if dt_s < 0:
            raise ValueError("dt must be >= 0")
        if power_w < 0:
            raise ValueError("power must be >= 0")
        spec, temps, index = self.spec, self._temps, self._index
        resistance = spec.resistance_k_per_w
        target = (spec.ambient_c + self._offsets.item(index)) + resistance * power_w
        # np.exp, not math.exp: libm may differ from numpy in the last bit.
        alpha = 1.0 - float(np.exp(-dt_s / (resistance * spec.capacitance_j_per_k)))
        temperature = temps.item(index)
        temps[index] = temperature = temperature + (target - temperature) * alpha
        if self._version_owner is not None:
            self._version_owner.power_inputs_version += 1
        return temperature
