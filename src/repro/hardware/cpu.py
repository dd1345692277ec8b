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
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

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


@lru_cache(maxsize=None)
def _walk_table(spec: "CpuSpec") -> tuple:
    """What every P-state walk on a SKU shares, built once per ``CpuSpec``:
    the P-state frequencies high to low, their negations (ascending, for
    ``bisect``), the one-entry ``freq_min`` fallback of a walk that no
    P-state can start, and the SKU's ``power_model.sku_constants``."""
    freqs = tuple(p.frequency_ghz for p in _cached_pstates(spec))
    sku = pm.sku_constants(
        spec.params, spec.freq_min_ghz, spec.uncore_min_ghz, spec.uncore_max_ghz
    )
    return freqs, tuple(-f for f in freqs), (spec.freq_min_ghz,), sku


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


class PhaseExecution(NamedTuple):
    """The outcome of running one phase on one package.

    A named tuple, built positionally once per package phase: immutable,
    picklable and cheap to build.
    """

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
        self._table = _walk_table(self.spec)
        # Achievable turbo is scaled by manufacturing variation.  The
        # variation cells below are written here only, so the walk reads
        # them as scalars bound here instead of from the state.  Plain
        # floats, not a per-package tuple or object: those are allocations
        # the garbage collector tracks, and a 512-node trace replay peaked
        # 2-4.5 MB higher with them.
        turbo = self._turbo_ghz = float(self.spec.freq_max_ghz * self.variation.max_turbo_scale)
        self._freq_span_ghz = turbo - self.spec.freq_min_ghz
        self._efficiency = self.variation.power_efficiency
        self._leakage_extra = self.variation.leakage_scale - 1.0
        # Bind this package's cells; knobs start at their firmware defaults.
        state.pkg_max_freq_ghz[index] = turbo
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

    # -- knob setters ----------------------------------------------------
    def clamp_frequency(self, freq_ghz: float) -> float:
        """Clamp a requested frequency to the nearest supported P-state."""
        freq = min(max(freq_ghz, self.spec.freq_min_ghz), self._turbo_ghz)
        freqs = self._table[0]
        index = self._first_at_or_below(freq + 1e-9)
        return freqs[index] if index < len(freqs) else freqs[-1]

    def _first_at_or_below(self, ceiling: float) -> int:
        """Index of the first P-state (high to low) at or below ``ceiling``,
        or the table's length when there is none."""
        freqs, negated, _, _ = self._table
        index = bisect_left(negated, -ceiling)
        # A NaN ceiling bisects to the front, yet no P-state is at or below it.
        if index < len(freqs) and not freqs[index] <= ceiling:
            return len(freqs)
        return index

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
        state, index = self._state, self._index
        if freq_ghz is None:
            freq_ghz = float(state.pkg_freq_target_ghz[index])
        if uncore_ghz is None:
            uncore_ghz = float(state.pkg_uncore_ghz[index])
        return self._walk(demand, (freq_ghz,), 0, math.inf, uncore_ghz, active_cores)[1]

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
        firmware walks down the P-states from the target until the
        running-average power fits under the cap (or the minimum P-state
        is reached); a target below every P-state runs at ``freq_min``.
        One :func:`~repro.hardware.power_model.pstate_walk` call.
        """
        state, index = self._state, self._index
        target = float(state.pkg_freq_target_ghz[index])
        cap = float(state.pkg_power_cap_w[index])
        freqs, negated, floor, sku = self._table
        ceiling = target + 1e-9
        start = bisect_left(negated, -ceiling)
        # A NaN ceiling bisects to the front, yet no P-state is at or below it.
        if start == len(freqs) or not freqs[start] <= ceiling:
            freqs, start = floor, 0
        cores = self.spec.cores
        freq, power = pm.pstate_walk(
            demand,
            freqs,
            start,
            cap,
            float(state.pkg_uncore_ghz[index]),
            cores if active_cores is None else min(active_cores, cores),
            float(state.pkg_temperature_c[index]),
            sku,
            self._freq_span_ghz,
            self._efficiency,
            self._leakage_extra,
        )
        return freq, not power <= cap + 1e-9 or freq < target - 1e-9, power

    def _walk(
        self,
        demand: PhaseDemand,
        freqs: Tuple[float, ...],
        start: int,
        cap: float,
        uncore_ghz: float,
        active_cores: Optional[int],
    ) -> tuple[float, float]:
        """:func:`~repro.hardware.power_model.pstate_walk` at this package's
        die temperature, with its SKU's and its own bound constants."""
        cores = self.spec.cores
        return pm.pstate_walk(
            demand,
            freqs,
            start,
            cap,
            uncore_ghz,
            cores if active_cores is None else min(active_cores, cores),
            float(self._state.pkg_temperature_c[self._index]),
            self._table[3],
            self._freq_span_ghz,
            self._efficiency,
            self._leakage_extra,
        )

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
        freq, capped, power = self.effective_frequency(demand, threads)
        duration, ipc, flops = pm.phase_timing(
            demand, freq, uncore, threads, ref_freq, ref_uncore, spec.params, comm_seconds_override
        )
        power = min(power, max(float(state.pkg_power_cap_w[index]), spec.min_power_cap_w))
        energy = power * duration

        state.pkg_energy_j[index] += energy
        state.pkg_busy_seconds[index] += duration
        temperature = self.thermal.advance(power, duration)

        return PhaseExecution(
            demand, duration, power, energy, freq, uncore, threads, ipc, flops, capped, temperature
        )

    def __repr__(self) -> str:
        return (
            f"CpuPackage(id={self.package_id}, model={self.spec.model!r}, "
            f"freq={self.frequency_ghz:.2f}GHz, cap={self.power_cap_w})"
        )
