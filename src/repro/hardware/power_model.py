"""Analytic CMOS power and roofline-style performance model.

These are pure functions (numpy-friendly, no simulation state) that the
:class:`~repro.hardware.cpu.CpuPackage` uses to translate *(workload,
knob settings)* into *(duration, power)*.  The functional forms are the
standard ones used in the power-aware-HPC literature the paper builds
on (Conductor, GEOPM, COUNTDOWN, READEX):

* dynamic power ``P_dyn = A * C * V^2 * f`` with voltage approximately
  linear in frequency over the DVFS range, giving the familiar roughly
  cubic power/frequency relationship;
* static (leakage) power, weakly dependent on temperature;
* execution time split into a core-frequency-sensitive part, an
  uncore/memory-sensitive part, and an insensitive part (see
  :class:`~repro.hardware.workload.PhaseDemand`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.workload import PhaseDemand

__all__ = [
    "PowerModelParams",
    "voltage_at_frequency",
    "core_dynamic_power",
    "uncore_power",
    "dram_power",
    "package_power",
    "frequency_independent_power",
    "phase_duration",
    "effective_ipc",
    "effective_flops",
    "voltage_at_frequency_array",
    "core_dynamic_power_array",
    "uncore_power_array",
    "static_power_array",
    "package_power_array",
]


@dataclass(frozen=True)
class PowerModelParams:
    """Calibration constants of the package power model.

    The defaults approximate a 2020-era dual-AVX server package in the
    ~100-250 W TDP class (the kind of node the paper's use cases ran on).
    """

    #: Voltage at the minimum DVFS frequency (V).
    v_min: float = 0.70
    #: Voltage at the maximum (turbo) frequency (V).
    v_max: float = 1.15
    #: Effective switched capacitance per core at activity factor 1 (nF-ish
    #: constant folded with frequency units so that power comes out in W
    #: when frequency is in GHz).
    core_capacitance: float = 3.0
    #: Leakage/static power of the package at reference temperature (W).
    static_power: float = 18.0
    #: Temperature coefficient of leakage (fraction per Kelvin above ref).
    leakage_temp_coeff: float = 0.004
    #: Reference temperature for the leakage model (degC).
    ref_temperature: float = 60.0
    #: Uncore (mesh/LLC/memory controller) power at maximum uncore
    #: frequency and full memory intensity (W).
    uncore_max_power: float = 22.0
    #: Idle uncore power floor (W).
    uncore_idle_power: float = 6.0
    #: DRAM power per DIMM-channel group at full intensity (W).
    dram_max_power: float = 30.0
    #: DRAM idle/refresh power (W).
    dram_idle_power: float = 5.0
    #: Exponent of the memory-time sensitivity to uncore frequency.
    uncore_perf_exponent: float = 0.7

    def __post_init__(self) -> None:
        if self.v_min <= 0 or self.v_max <= self.v_min:
            raise ValueError("require 0 < v_min < v_max")
        if self.core_capacitance <= 0:
            raise ValueError("core_capacitance must be positive")
        for attr in (
            "static_power",
            "uncore_max_power",
            "uncore_idle_power",
            "dram_max_power",
            "dram_idle_power",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")


def voltage_at_frequency(
    freq_ghz: float, freq_min_ghz: float, freq_max_ghz: float, params: PowerModelParams
) -> float:
    """Operating voltage for a core frequency (linear V/f approximation)."""
    if freq_max_ghz <= freq_min_ghz:
        raise ValueError("freq_max must exceed freq_min")
    frac = (freq_ghz - freq_min_ghz) / (freq_max_ghz - freq_min_ghz)
    frac = min(max(frac, 0.0), 1.0)
    return params.v_min + (params.v_max - params.v_min) * frac


def core_dynamic_power(
    freq_ghz: float,
    freq_min_ghz: float,
    freq_max_ghz: float,
    active_cores: int,
    activity_factor: float,
    params: PowerModelParams,
    efficiency_multiplier: float = 1.0,
) -> float:
    """Dynamic power of the active cores (W)."""
    if active_cores < 0:
        raise ValueError("active_cores must be >= 0")
    volt = voltage_at_frequency(freq_ghz, freq_min_ghz, freq_max_ghz, params)
    per_core = params.core_capacitance * activity_factor * volt * volt * freq_ghz
    return float(per_core * active_cores * efficiency_multiplier)


def uncore_power(
    uncore_ghz: float,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
    dram_intensity: float,
    params: PowerModelParams,
) -> float:
    """Uncore (mesh + LLC + memory controller) power (W)."""
    if uncore_max_ghz <= uncore_min_ghz:
        raise ValueError("uncore_max must exceed uncore_min")
    frac = min(max((uncore_ghz - uncore_min_ghz) / (uncore_max_ghz - uncore_min_ghz), 0.0), 1.0)
    utilization = 0.3 + 0.7 * min(max(dram_intensity, 0.0), 1.0)
    dynamic = (params.uncore_max_power - params.uncore_idle_power) * frac * utilization
    return params.uncore_idle_power + dynamic


def dram_power(dram_intensity: float, params: PowerModelParams) -> float:
    """DRAM power for the package's memory channels (W)."""
    intensity = min(max(dram_intensity, 0.0), 1.0)
    return params.dram_idle_power + (params.dram_max_power - params.dram_idle_power) * intensity


def static_power(temperature_c: float, params: PowerModelParams) -> float:
    """Leakage power, increasing with die temperature (W)."""
    delta = temperature_c - params.ref_temperature
    return params.static_power * max(0.2, 1.0 + params.leakage_temp_coeff * delta)


def frequency_independent_power(
    demand: PhaseDemand,
    uncore_ghz: float,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
    params: PowerModelParams,
    temperature_c: float | None = None,
) -> tuple[float, float, float, float]:
    """The terms of :func:`package_power` that do not depend on core frequency.

    Returns ``(activity, p_uncore, p_static, p_dram)``: the core activity
    factor to pass to :func:`core_dynamic_power`, and the uncore, static
    and DRAM powers (W).  A P-state walk computes these once and only the
    core term per probed frequency.

    The core activity factor is weighted by how core-bound the phase is:
    stall-heavy (memory/communication bound) phases keep cores busy
    spinning or waiting at far lower switching activity.
    """
    busy_weight = (
        demand.core_fraction * 1.0
        + demand.memory_fraction * 0.55
        + demand.comm_fraction * 0.35
        + demand.other_fraction * 0.4
    )
    activity = demand.activity_factor * busy_weight
    p_uncore = uncore_power(
        uncore_ghz, uncore_min_ghz, uncore_max_ghz, demand.dram_intensity, params
    )
    temp = params.ref_temperature if temperature_c is None else temperature_c
    p_static = static_power(temp, params)
    p_dram = dram_power(demand.dram_intensity, params)
    return activity, p_uncore, p_static, p_dram


def package_power(
    demand: PhaseDemand,
    freq_ghz: float,
    uncore_ghz: float,
    active_cores: int,
    freq_min_ghz: float,
    freq_max_ghz: float,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
    params: PowerModelParams,
    efficiency_multiplier: float = 1.0,
    temperature_c: float | None = None,
) -> float:
    """Total package power (core + uncore + static) plus DRAM power (W)."""
    activity, p_uncore, p_static, p_dram = frequency_independent_power(
        demand, uncore_ghz, uncore_min_ghz, uncore_max_ghz, params, temperature_c
    )
    p_core = core_dynamic_power(
        freq_ghz,
        freq_min_ghz,
        freq_max_ghz,
        active_cores,
        activity,
        params,
        efficiency_multiplier,
    )
    return p_core + p_uncore + p_static + p_dram


# -- array (struct-of-arrays) variants ---------------------------------------
#
# Elementwise twins of the scalar functions above, used by the
# :class:`~repro.hardware.state.ClusterState` kernel to evaluate the power
# model for every package of a cluster in one numpy expression.  They apply
# the exact same IEEE operations as the scalar versions, so per-element
# results agree with the per-package loop to floating-point rounding.


def voltage_at_frequency_array(
    freq_ghz: np.ndarray,
    freq_min_ghz: float,
    freq_max_ghz: np.ndarray,
    params: PowerModelParams,
) -> np.ndarray:
    """Operating voltage for per-package frequency/turbo-limit arrays."""
    frac = (freq_ghz - freq_min_ghz) / (freq_max_ghz - freq_min_ghz)
    frac = np.clip(frac, 0.0, 1.0)
    return params.v_min + (params.v_max - params.v_min) * frac


def core_dynamic_power_array(
    freq_ghz: np.ndarray,
    freq_min_ghz: float,
    freq_max_ghz: np.ndarray,
    active_cores: int,
    activity_factor: float,
    params: PowerModelParams,
    efficiency_multiplier: np.ndarray,
) -> np.ndarray:
    """Dynamic power of the active cores for every package (W)."""
    volt = voltage_at_frequency_array(freq_ghz, freq_min_ghz, freq_max_ghz, params)
    per_core = params.core_capacitance * activity_factor * volt * volt * freq_ghz
    return per_core * active_cores * efficiency_multiplier


def uncore_power_array(
    uncore_ghz: np.ndarray,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
    dram_intensity: float,
    params: PowerModelParams,
) -> np.ndarray:
    """Uncore power for per-package uncore frequency arrays (W)."""
    frac = np.clip((uncore_ghz - uncore_min_ghz) / (uncore_max_ghz - uncore_min_ghz), 0.0, 1.0)
    utilization = 0.3 + 0.7 * float(np.clip(dram_intensity, 0.0, 1.0))
    dynamic = (params.uncore_max_power - params.uncore_idle_power) * frac * utilization
    return params.uncore_idle_power + dynamic


def static_power_array(temperature_c: np.ndarray, params: PowerModelParams) -> np.ndarray:
    """Leakage power for per-package temperature arrays (W)."""
    delta = temperature_c - params.ref_temperature
    return params.static_power * np.maximum(0.2, 1.0 + params.leakage_temp_coeff * delta)


def package_power_array(
    demand: PhaseDemand,
    freq_ghz: np.ndarray,
    uncore_ghz: np.ndarray,
    active_cores: int,
    freq_min_ghz: float,
    freq_max_ghz: np.ndarray,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
    params: PowerModelParams,
    efficiency_multiplier: np.ndarray,
    temperature_c: np.ndarray,
    leakage_scale: np.ndarray | None = None,
) -> np.ndarray:
    """Total package + DRAM power for every package at once (W).

    Matches :func:`package_power` elementwise; when ``leakage_scale`` is
    given the per-package leakage variation is folded in exactly like
    :meth:`CpuPackage.power_at` does (base static power plus
    ``static * (leakage_scale - 1)``).
    """
    busy_weight = (
        demand.core_fraction * 1.0
        + demand.memory_fraction * 0.55
        + demand.comm_fraction * 0.35
        + demand.other_fraction * 0.4
    )
    activity = demand.activity_factor * busy_weight
    p_core = core_dynamic_power_array(
        freq_ghz,
        freq_min_ghz,
        freq_max_ghz,
        active_cores,
        activity,
        params,
        efficiency_multiplier,
    )
    p_uncore = uncore_power_array(
        uncore_ghz, uncore_min_ghz, uncore_max_ghz, demand.dram_intensity, params
    )
    p_static = static_power_array(temperature_c, params)
    p_dram = dram_power(demand.dram_intensity, params)
    total = p_core + p_uncore + p_static + p_dram
    if leakage_scale is not None:
        total = total + p_static * (leakage_scale - 1.0)
    return total


def phase_duration(
    demand: PhaseDemand,
    freq_ghz: float,
    uncore_ghz: float,
    threads: int,
    ref_freq_ghz: float,
    ref_uncore_ghz: float,
    params: PowerModelParams,
    comm_seconds_override: float | None = None,
) -> float:
    """Duration of a phase at the given operating point (seconds).

    ``comm_seconds_override`` lets the MPI layer substitute the actual
    (imbalance-dependent) communication time; when ``None`` the nominal
    communication fraction of the reference duration is used.
    """
    if freq_ghz <= 0 or uncore_ghz <= 0:
        raise ValueError("frequencies must be positive")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    thread_factor = demand.thread_scaling(threads)
    base = demand.ref_seconds
    core_time = base * demand.core_fraction * (ref_freq_ghz / freq_ghz) * thread_factor
    mem_time = (
        base
        * demand.memory_fraction
        * (ref_uncore_ghz / uncore_ghz) ** params.uncore_perf_exponent
        * (0.5 + 0.5 * thread_factor)
    )
    other_time = base * demand.other_fraction
    if comm_seconds_override is None:
        comm_time = base * demand.comm_fraction
    else:
        comm_time = max(0.0, float(comm_seconds_override))
    return core_time + mem_time + other_time + comm_time


def effective_ipc(
    demand: PhaseDemand,
    duration_s: float,
    freq_ghz: float,
    threads: int,
    ref_freq_ghz: float,
) -> float:
    """Average retired instructions per cycle per core over the phase.

    The instruction count of the phase is fixed by the work, so IPC falls
    when the duration stretches (e.g. stalled on memory at high core
    frequency) and rises when the core-bound portion dominates.
    """
    if duration_s <= 0:
        return 0.0
    knob_sensitive = demand.core_fraction + demand.memory_fraction + demand.other_fraction
    ref_busy = demand.ref_seconds * max(knob_sensitive, 1e-9)
    instructions = demand.ops_per_cycle_ref * (ref_freq_ghz * 1e9) * ref_busy * demand.ref_threads
    cycles = freq_ghz * 1e9 * duration_s * threads
    if cycles <= 0:
        return 0.0
    return float(instructions / cycles)


def effective_flops(demand: PhaseDemand, duration_s: float) -> float:
    """Average useful FLOP/s over the phase."""
    if duration_s <= 0:
        return 0.0
    useful_fraction = demand.core_fraction + demand.memory_fraction + demand.other_fraction
    total_flops = demand.flops_per_second_ref * demand.ref_seconds * max(useful_fraction, 1e-9)
    return float(total_flops / duration_s)
