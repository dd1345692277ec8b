"""Processor package model: P-states, uncore frequency, power, performance.

A :class:`CpuPackage` is the unit on which the PowerStack's node-level
knobs act: the node manager (or a job-level runtime through it) can pin a
core frequency (P-state), pin an uncore frequency, and apply an RAPL-style
package power cap.  Given a :class:`~repro.hardware.workload.PhaseDemand`
the package computes how long the phase takes, how much power it draws
and what the derived counters (IPC, FLOP/s) read — honouring whichever of
the knob settings is most restrictive, exactly like firmware does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware import power_model as pm
from repro.hardware.power_model import PowerModelParams
from repro.hardware.state import IDLE_DEMAND, ClusterState
from repro.hardware.thermal import ThermalModel, ThermalSpec
from repro.hardware.variation import VariationDraw, VariationModel
from repro.hardware.workload import PhaseDemand

__all__ = ["PState", "CpuSpec", "PhaseExecution", "CpuPackage"]


@lru_cache(maxsize=None)
def _cached_pstates(spec: "CpuSpec") -> tuple["PState", ...]:
    """P-state table per SKU, shared across all packages of a cluster."""
    return tuple(spec.pstates())


@dataclass(frozen=True)
class PState:
    """A discrete DVFS operating point."""

    index: int
    frequency_ghz: float

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a processor package SKU."""

    model: str = "Xeon-SIM 8280"
    cores: int = 28
    freq_min_ghz: float = 1.0
    freq_base_ghz: float = 2.4
    freq_max_ghz: float = 3.6
    freq_step_ghz: float = 0.1
    uncore_min_ghz: float = 1.2
    uncore_max_ghz: float = 2.4
    tdp_w: float = 205.0
    min_power_cap_w: float = 70.0
    params: PowerModelParams = field(default_factory=PowerModelParams)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if not 0 < self.freq_min_ghz <= self.freq_base_ghz <= self.freq_max_ghz:
            raise ValueError("require 0 < freq_min <= freq_base <= freq_max")
        if self.freq_step_ghz <= 0:
            raise ValueError("freq_step must be positive")
        if not 0 < self.uncore_min_ghz <= self.uncore_max_ghz:
            raise ValueError("require 0 < uncore_min <= uncore_max")
        if self.tdp_w <= 0 or self.min_power_cap_w <= 0:
            raise ValueError("tdp and min_power_cap must be positive")
        if self.min_power_cap_w > self.tdp_w:
            raise ValueError("min_power_cap must not exceed tdp")

    def pstates(self) -> List[PState]:
        """All discrete P-states, highest frequency first (P0, P1, ...)."""
        freqs = np.arange(self.freq_max_ghz, self.freq_min_ghz - 1e-9, -self.freq_step_ghz)
        freqs = np.round(freqs, 6)
        if freqs[-1] > self.freq_min_ghz + 1e-9:
            freqs = np.append(freqs, self.freq_min_ghz)
        return [PState(index=i, frequency_ghz=float(f)) for i, f in enumerate(freqs)]


@dataclass(frozen=True)
class PhaseExecution:
    """The outcome of running one phase on one package."""

    demand: PhaseDemand
    duration_s: float
    power_w: float
    energy_j: float
    frequency_ghz: float
    uncore_ghz: float
    threads: int
    ipc: float
    flops: float
    power_capped: bool
    temperature_c: float

    @property
    def energy_delay_product(self) -> float:
        return self.energy_j * self.duration_s

    @property
    def flops_per_watt(self) -> float:
        return self.flops / self.power_w if self.power_w > 0 else 0.0

    @property
    def ipc_per_watt(self) -> float:
        return self.ipc / self.power_w if self.power_w > 0 else 0.0


class CpuPackage:
    """Stateful processor package with DVFS, uncore and power-cap controls.

    All mutable state (frequency/uncore targets, power cap, accumulated
    energy, busy time, die temperature) lives in a
    :class:`~repro.hardware.state.ClusterState` — either the shared
    cluster-wide store (``state``/``index`` given) or a private one-row
    store for standalone packages.  The scalar accessors below are views
    into those arrays, so per-package and whole-cluster code always agree.
    """

    def __init__(
        self,
        spec: CpuSpec | None = None,
        variation: VariationDraw | None = None,
        thermal_spec: ThermalSpec | None = None,
        package_id: int = 0,
        state: Optional[ClusterState] = None,
        index: Optional[Tuple[int, int]] = None,
    ):
        self.spec = spec or CpuSpec()
        self.variation = variation or VariationModel.nominal()
        self.package_id = package_id
        if state is None:
            state = ClusterState(1, 1)
            index = (0, 0)
        if index is None:
            raise ValueError("state and index must be given together")
        self._state = state
        self._index = index
        self.thermal = ThermalModel(
            thermal_spec,
            temps=state.pkg_temperature_c,
            offsets=state.pkg_ambient_offset_c,
            index=index,
            version_owner=state,
        )

        self._pstates = _cached_pstates(self.spec)
        # Bind this package's cells: achievable turbo is scaled by
        # manufacturing variation, knobs start at their firmware defaults.
        state.pkg_max_freq_ghz[index] = self.spec.freq_max_ghz * self.variation.max_turbo_scale
        state.pkg_freq_target_ghz[index] = self.spec.freq_base_ghz
        state.pkg_uncore_ghz[index] = self.spec.uncore_max_ghz
        state.power_inputs_version += 1
        # Real packages ship with RAPL PL1 = TDP; "uncapping" a package
        # therefore means resetting the limit to TDP, never to infinity.
        state.pkg_power_cap_w[index] = self.spec.tdp_w
        state.pkg_power_efficiency[index] = self.variation.power_efficiency
        state.pkg_leakage_scale[index] = self.variation.leakage_scale
        state.invalidate_efficiency_cache()
        state.pkg_energy_j[index] = 0.0
        state.pkg_busy_seconds[index] = 0.0

    # -- properties ------------------------------------------------------
    @property
    def pstates(self) -> List[PState]:
        return list(self._pstates)

    @property
    def frequency_ghz(self) -> float:
        """Current frequency target (before power capping)."""
        return float(self._state.pkg_freq_target_ghz[self._index])

    @property
    def uncore_ghz(self) -> float:
        return float(self._state.pkg_uncore_ghz[self._index])

    @property
    def power_cap_w(self) -> float:
        return float(self._state.pkg_power_cap_w[self._index])

    @property
    def max_frequency_ghz(self) -> float:
        """Maximum achievable frequency for this particular part."""
        return float(self._state.pkg_max_freq_ghz[self._index])

    @property
    def energy_j(self) -> float:
        """Total energy consumed by phases executed on this package."""
        return float(self._state.pkg_energy_j[self._index])

    @property
    def busy_seconds(self) -> float:
        return float(self._state.pkg_busy_seconds[self._index])

    # -- knob setters ----------------------------------------------------
    def clamp_frequency(self, freq_ghz: float) -> float:
        """Clamp a requested frequency to the nearest supported P-state."""
        freq = min(max(freq_ghz, self.spec.freq_min_ghz), self.max_frequency_ghz)
        limit = freq + 1e-9
        for pstate in self._pstates:  # high to low
            if pstate.frequency_ghz <= limit:
                return pstate.frequency_ghz
        return self._pstates[-1].frequency_ghz

    def set_frequency(self, freq_ghz: float) -> float:
        """Request a core frequency; returns the granted P-state frequency."""
        granted = self.clamp_frequency(freq_ghz)
        self._state.pkg_freq_target_ghz[self._index] = granted
        return granted

    def set_uncore_frequency(self, uncore_ghz: float) -> float:
        """Request an uncore frequency; returns the granted value."""
        granted = float(min(max(uncore_ghz, self.spec.uncore_min_ghz), self.spec.uncore_max_ghz))
        self._state.pkg_uncore_ghz[self._index] = granted
        self._state.power_inputs_version += 1
        return granted

    def set_power_cap(self, watts: Optional[float]) -> float:
        """Apply a package power cap (``None`` resets to the TDP default)."""
        if watts is None:
            cap = self.spec.tdp_w
        else:
            cap = float(min(max(watts, self.spec.min_power_cap_w), self.spec.tdp_w))
        self._state.pkg_power_cap_w[self._index] = cap
        return cap

    # -- power / performance ---------------------------------------------
    def power_at(
        self,
        demand: PhaseDemand,
        freq_ghz: Optional[float] = None,
        uncore_ghz: Optional[float] = None,
        active_cores: Optional[int] = None,
    ) -> float:
        """Package + DRAM power for a demand at a hypothetical setting (W)."""
        if freq_ghz is None:
            freq_ghz = float(self._state.pkg_freq_target_ghz[self._index])
        return self._first_fit(demand, (freq_ghz,), math.inf, uncore_ghz, active_cores)[1]

    def idle_power_w(self) -> float:
        """Power drawn when no phase is executing.

        Uses the shared :data:`~repro.hardware.state.IDLE_DEMAND` so the
        scalar path and the vectorised kernel can never disagree on what
        "idle" means.
        """
        return self.power_at(IDLE_DEMAND, freq_ghz=self.spec.freq_min_ghz, active_cores=0)

    def effective_frequency(
        self, demand: PhaseDemand, active_cores: Optional[int] = None
    ) -> tuple[float, bool, float]:
        """Frequency actually delivered for a demand, honouring the power cap.

        Returns ``(frequency_ghz, was_capped, power_w)``, where ``power_w``
        is :meth:`power_at` at that frequency.  Mirrors RAPL behaviour:
        firmware walks down the P-states until the running-average power
        fits under the cap (or the minimum P-state is reached).
        """
        target = float(self._state.pkg_freq_target_ghz[self._index])
        cap = float(self._state.pkg_power_cap_w[self._index])
        ceiling = target + 1e-9
        candidates = [p.frequency_ghz for p in self._pstates if p.frequency_ghz <= ceiling]
        freq, power = self._first_fit(
            demand, candidates or (self.spec.freq_min_ghz,), cap, None, active_cores
        )
        return freq, not power <= cap + 1e-9 or freq < target - 1e-9, power

    def _first_fit(
        self,
        demand: PhaseDemand,
        freqs: Sequence[float],
        cap: float,
        uncore_ghz: Optional[float],
        active_cores: Optional[int],
    ) -> tuple[float, float]:
        """The first of ``freqs`` (high to low) whose power fits under ``cap``.

        Returns that frequency and its package + DRAM power, or the last
        frequency and its power when none fits.  The frequency-independent
        terms of the power model are computed once; each probe adds only
        the core dynamic term.
        """
        spec, variation = self.spec, self.variation
        state, index = self._state, self._index
        params = spec.params
        cores = spec.cores if active_cores is None else min(active_cores, spec.cores)
        uncore = float(state.pkg_uncore_ghz[index]) if uncore_ghz is None else uncore_ghz
        activity, p_uncore, p_static, p_dram = pm.frequency_independent_power(
            demand,
            uncore,
            spec.uncore_min_ghz,
            spec.uncore_max_ghz,
            params,
            temperature_c=self.thermal.temperature_c,
        )
        # Leakage variation applies to the static share only.
        static_extra = p_static * (variation.leakage_scale - 1.0)
        freq_min, freq_max = spec.freq_min_ghz, float(state.pkg_max_freq_ghz[index])
        efficiency = variation.power_efficiency
        limit = cap + 1e-9
        for freq in freqs:
            p_core = pm.core_dynamic_power(
                freq, freq_min, freq_max, cores, activity, params, efficiency
            )
            power = p_core + p_uncore + p_static + p_dram + static_extra
            if power <= limit:
                break
        return freq, power

    # repro-lint: hot
    def execute(
        self,
        demand: PhaseDemand,
        threads: Optional[int] = None,
        comm_seconds_override: Optional[float] = None,
        ref_freq_ghz: Optional[float] = None,
        ref_uncore_ghz: Optional[float] = None,
    ) -> PhaseExecution:
        """Execute a phase, accumulate energy, and return the outcome."""
        spec, state, index = self.spec, self._state, self._index
        threads = spec.cores if threads is None else int(threads)
        if threads < 1:
            raise ValueError("threads must be >= 1")
        threads = min(threads, spec.cores)

        ref_freq = spec.freq_base_ghz if ref_freq_ghz is None else ref_freq_ghz
        ref_uncore = spec.uncore_max_ghz if ref_uncore_ghz is None else ref_uncore_ghz

        uncore = float(state.pkg_uncore_ghz[index])
        freq, capped, power = self.effective_frequency(demand, active_cores=threads)
        duration = pm.phase_duration(
            demand,
            freq,
            uncore,
            threads,
            ref_freq,
            ref_uncore,
            spec.params,
            comm_seconds_override=comm_seconds_override,
        )
        power = min(power, max(float(state.pkg_power_cap_w[index]), spec.min_power_cap_w))
        energy = power * duration
        ipc = pm.effective_ipc(demand, duration, freq, threads, ref_freq)
        flops = pm.effective_flops(demand, duration)

        state.pkg_energy_j[index] += energy
        state.pkg_busy_seconds[index] += duration
        temperature = self.thermal.advance(power, duration)

        return PhaseExecution(
            demand=demand,
            duration_s=duration,
            power_w=power,
            energy_j=energy,
            frequency_ghz=freq,
            uncore_ghz=uncore,
            threads=threads,
            ipc=ipc,
            flops=flops,
            power_capped=capped,
            temperature_c=temperature,
        )

    def __repr__(self) -> str:
        return (
            f"CpuPackage(id={self.package_id}, model={self.spec.model!r}, "
            f"freq={self.frequency_ghz:.2f}GHz, cap={self.power_cap_w})"
        )
