"""Analytic CMOS power and roofline-style performance model.

These are pure functions (no simulation state) that the
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

A package phase is one scalar pass over these formulas:
:func:`pstate_walk` finds the frequency the power cap allows and the
power drawn there, and :func:`phase_timing` derives duration, IPC and
FLOP/s at that frequency (once per operating point the packages of a
node end at).  The walk takes what never changes once a package is
built as bound constants: its SKU's :func:`sku_constants` and a few
per-package scalars; what depends on the demand alone it reads from the
:class:`~repro.hardware.workload.PhaseDemand`.  A demand priced on every
phase, the MPI busy-wait, has its core term tabulated once per package
(:func:`demand_table`), so its walk (:func:`table_walk`) adds only the
terms that depend on uncore and temperature.  The ``*_array`` twins
evaluate the uncore and leakage terms for every package of a cluster at
once, which is all the vectorised idle power
(:meth:`~repro.hardware.state.ClusterState.idle_power_per_package`)
needs: at idle no core is active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.hardware.workload import PhaseDemand

__all__ = [
    "PowerModelParams",
    "sku_constants",
    "dram_power",
    "pstate_walk",
    "demand_table",
    "table_walk",
    "phase_timing",
    "uncore_power_array",
    "static_power_array",
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


def dram_power(dram_intensity: float, params: PowerModelParams) -> float:
    """DRAM power for the package's memory channels (W)."""
    intensity = 0.0 if dram_intensity < 0.0 else 1.0 if dram_intensity > 1.0 else dram_intensity
    return params.dram_idle_power + (params.dram_max_power - params.dram_idle_power) * intensity


def sku_constants(
    params: PowerModelParams,
    freq_min_ghz: float,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
) -> tuple:
    """The inputs of :func:`pstate_walk` that every package of a SKU shares.

    Returns ``(params, freq_min, uncore_min, uncore_span, voltage_span,
    uncore_dynamic_w, dram_dynamic_w)``: the uncore range and the constant
    differences of ``params``.  Each is a value the formulas would otherwise
    recompute on every call, so binding it changes no result.
    """
    return (
        params,
        freq_min_ghz,
        uncore_min_ghz,
        uncore_max_ghz - uncore_min_ghz,
        params.v_max - params.v_min,
        params.uncore_max_power - params.uncore_idle_power,
        params.dram_max_power - params.dram_idle_power,
    )


def pstate_walk(
    demand: PhaseDemand,
    freqs: Sequence[float],
    start: int,
    cap_w: float,
    uncore_ghz: float,
    cores: int,
    temperature_c: float,
    sku: tuple,
    freq_span_ghz: float,
    efficiency: float,
    leakage_extra: float,
) -> tuple[float, float]:
    """The first of ``freqs[start:]`` (high to low) whose power fits under ``cap_w``.

    Returns that frequency and the package + DRAM power drawn there (W),
    or the last frequency and its power when none fits.  The terms that
    do not depend on core frequency are computed once: uncore power,
    leakage at the die temperature (plus the package's leakage variation)
    and DRAM power, from the demand's own ``switching_activity``,
    ``uncore_utilization`` and ``dram_load``.  Each probe adds only the
    dynamic power of the active cores, ``C * A * V^2 * f`` per core with
    the voltage linear in frequency between ``freq_min`` and the turbo
    limit, scaled by the package's power efficiency.

    ``sku`` is the SKU's :func:`sku_constants`.  The package's own
    constants come as scalars: its turbo limit minus ``freq_min``, its
    dynamic-power efficiency multiplier and its leakage scale minus 1
    (leakage variation applies to the static share only).
    """
    params, freq_min, uncore_min, uncore_span, v_span, uncore_dynamic_w, dram_dynamic_w = sku
    if uncore_span <= 0:
        raise ValueError("uncore_max must exceed uncore_min")
    if cores < 0:
        raise ValueError("active_cores must be >= 0")
    if freq_span_ghz <= 0:
        raise ValueError("freq_max must exceed freq_min")
    switching = params.core_capacitance * demand.switching_activity
    # ``lo if x < lo else hi if x > hi else x`` is ``min(max(x, lo), hi)``,
    # the same value (NaN included) without two builtin calls.
    frac = (uncore_ghz - uncore_min) / uncore_span
    frac = 0.0 if frac < 0.0 else 1.0 if frac > 1.0 else frac
    p_uncore = params.uncore_idle_power + uncore_dynamic_w * frac * demand.uncore_utilization
    leakage = 1.0 + params.leakage_temp_coeff * (temperature_c - params.ref_temperature)
    p_static = params.static_power * (leakage if leakage > 0.2 else 0.2)
    p_dram = params.dram_idle_power + dram_dynamic_w * demand.dram_load
    static_extra = p_static * leakage_extra

    v_min = params.v_min
    limit = cap_w + 1e-9
    for index in range(start, len(freqs)):
        freq = freqs[index]
        frac = (freq - freq_min) / freq_span_ghz
        volt = v_min + v_span * (0.0 if frac < 0.0 else 1.0 if frac > 1.0 else frac)
        p_core = float(switching * volt * volt * freq * cores * efficiency)
        power = p_core + p_uncore + p_static + p_dram + static_extra
        if power <= limit:
            break
    return freq, power


# The two functions below price one fixed demand (the MPI busy-wait) on one
# package.  They restate pstate_walk's per-package expressions, operand for
# operand, rather than share helpers with it: a helper call per walk costs
# about a third of a one-probe walk, and pstate_walk prices every package
# phase.  The demand-only terms both read from the demand.


def demand_table(
    demand: PhaseDemand,
    freqs: Sequence[float],
    cores: int,
    sku: tuple,
    freq_span_ghz: float,
    efficiency: float,
) -> tuple:
    """What :func:`table_walk` needs to price ``demand`` on one package.

    Returns ``(core_w, utilization, p_dram)``: :func:`pstate_walk`'s core
    term at each of ``freqs`` (its probe expression, evaluated once per
    frequency), the demand's uncore utilisation and its DRAM power.  The
    arguments and their checks are :func:`pstate_walk`'s.
    """
    params, freq_min, _, uncore_span, v_span, _, dram_dynamic_w = sku
    if uncore_span <= 0:
        raise ValueError("uncore_max must exceed uncore_min")
    if cores < 0:
        raise ValueError("active_cores must be >= 0")
    if freq_span_ghz <= 0:
        raise ValueError("freq_max must exceed freq_min")
    switching = params.core_capacitance * demand.switching_activity
    v_min = params.v_min
    core_w = []
    for freq in freqs:
        frac = (freq - freq_min) / freq_span_ghz
        volt = v_min + v_span * (0.0 if frac < 0.0 else 1.0 if frac > 1.0 else frac)
        core_w.append(float(switching * volt * volt * freq * cores * efficiency))
    p_dram = params.dram_idle_power + dram_dynamic_w * demand.dram_load
    return tuple(core_w), demand.uncore_utilization, p_dram


def table_walk(
    table: tuple,
    start: int,
    stop: int,
    cap_w: float,
    uncore_ghz: float,
    temperature_c: float,
    sku: tuple,
    leakage_extra: float,
) -> float:
    """:func:`pstate_walk`'s power over a :func:`demand_table`.

    The power at the first of the table's frequencies ``[start:stop]``
    whose power fits under ``cap_w``, or at the last: the power
    :func:`pstate_walk` returns for the table's demand over those
    frequencies, bit for bit.
    """
    core_w, utilization, p_dram = table
    params, _, uncore_min, uncore_span, _, uncore_dynamic_w, _ = sku
    frac = (uncore_ghz - uncore_min) / uncore_span
    frac = 0.0 if frac < 0.0 else 1.0 if frac > 1.0 else frac
    p_uncore = params.uncore_idle_power + uncore_dynamic_w * frac * utilization
    leakage = 1.0 + params.leakage_temp_coeff * (temperature_c - params.ref_temperature)
    p_static = params.static_power * (leakage if leakage > 0.2 else 0.2)
    static_extra = p_static * leakage_extra
    limit = cap_w + 1e-9
    for index in range(start, stop):
        power = core_w[index] + p_uncore + p_static + p_dram + static_extra
        if power <= limit:
            break
    return power


def phase_timing(
    demand: PhaseDemand,
    freq_ghz: float,
    uncore_ghz: float,
    threads: int,
    thread_factor: float,
    ref_freq_ghz: float,
    ref_uncore_ghz: float,
    params: PowerModelParams,
    comm_seconds_override: Optional[float] = None,
) -> tuple[float, float, float]:
    """Duration (s), IPC and FLOP/s of a phase at the given operating point.

    The duration is a core-bound part scaled by ``ref_freq / freq`` and
    the thread count's ``thread_factor`` (the demand's
    :meth:`~repro.hardware.workload.PhaseDemand.thread_scaling` at
    ``threads``), a memory-bound part scaled by the uncore frequency,
    the knob-insensitive rest and the communication time.
    ``comm_seconds_override`` lets the MPI layer substitute the actual
    (imbalance-dependent) communication time; when ``None`` the nominal
    communication fraction of the reference duration is used.

    The instruction count of the phase is fixed by the work, so IPC falls
    when the duration stretches (e.g. stalled on memory at high core
    frequency) and rises when the core-bound portion dominates.  Both
    counters read 0 for a phase of no duration.
    """
    if freq_ghz <= 0 or uncore_ghz <= 0:
        raise ValueError("frequencies must be positive")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    base = demand.ref_seconds
    core, memory, other = demand.core_fraction, demand.memory_fraction, demand.other_fraction
    core_time = base * core * (ref_freq_ghz / freq_ghz) * thread_factor
    mem_time = (
        base
        * memory
        * (ref_uncore_ghz / uncore_ghz) ** params.uncore_perf_exponent
        * (0.5 + 0.5 * thread_factor)
    )
    other_time = base * other
    if comm_seconds_override is None:
        comm_time = base * demand.comm_fraction
    else:
        comm_time = max(0.0, float(comm_seconds_override))
    duration = core_time + mem_time + other_time + comm_time
    if duration <= 0:
        return duration, 0.0, 0.0

    busy = core + memory + other
    busy = 1e-9 if busy < 1e-9 else busy
    instructions = demand.ops_per_cycle_ref * (ref_freq_ghz * 1e9) * (base * busy) * demand.ref_threads
    cycles = freq_ghz * 1e9 * duration * threads
    ipc = 0.0 if cycles <= 0 else float(instructions / cycles)
    flops = float(demand.flops_per_second_ref * base * busy / duration)
    return duration, ipc, flops


# -- array (struct-of-arrays) variants ---------------------------------------
#
# Elementwise twins of the uncore and leakage terms of :func:`pstate_walk`,
# used by the :class:`~repro.hardware.state.ClusterState` kernel for the
# idle power of every package of a cluster in one numpy expression.  They
# apply the same IEEE operations as the scalar pass, so for finite inputs
# each element equals the per-package result bit for bit.


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
