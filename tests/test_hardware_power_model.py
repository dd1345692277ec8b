"""Tests for the analytic power/performance model and workload descriptors.

The formulas are checked one by one on the reference functions in
``tests/oracles.py``; ``tests/test_hardware_cpu.py`` pins the package's
scalar pass to them bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    core_dynamic_power,
    effective_flops,
    effective_ipc,
    package_power,
    phase_duration,
    static_power,
    uncore_power,
    voltage_at_frequency,
    with_tags,
)
from repro.hardware.power_model import PowerModelParams, dram_power
from repro.hardware.workload import PhaseDemand

PARAMS = PowerModelParams()


def make_demand(**overrides):
    defaults = dict(
        name="phase",
        ref_seconds=2.0,
        core_fraction=0.6,
        memory_fraction=0.25,
        comm_fraction=0.05,
    )
    defaults.update(overrides)
    return PhaseDemand(**defaults)


# -- PhaseDemand -----------------------------------------------------------------


def test_phase_demand_other_fraction():
    demand = make_demand(core_fraction=0.5, memory_fraction=0.3, comm_fraction=0.1)
    assert demand.other_fraction == pytest.approx(0.1)


def test_phase_demand_fraction_sum_validated():
    with pytest.raises(ValueError):
        make_demand(core_fraction=0.7, memory_fraction=0.5, comm_fraction=0.1)


def test_phase_demand_negative_time_rejected():
    for seconds in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            make_demand(ref_seconds=seconds)


def test_phase_demand_scaled():
    demand = make_demand(ref_seconds=2.0)
    assert demand.scaled(0.5).ref_seconds == pytest.approx(1.0)
    for factor in (-1.0, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError):
            demand.scaled(factor)


def test_phase_demand_with_tags_merges():
    demand = with_tags(make_demand(), mpi_call="Allreduce")
    assert demand.tags["mpi_call"] == "Allreduce"


def test_thread_scaling_monotone():
    demand = make_demand(serial_fraction=0.05, ref_threads=1)
    assert demand.thread_scaling(1) == pytest.approx(1.0)
    assert demand.thread_scaling(8) < 1.0
    assert demand.thread_scaling(16) < demand.thread_scaling(8)


def test_thread_scaling_invalid_threads():
    with pytest.raises(ValueError):
        make_demand().thread_scaling(0)


# -- voltage / power ---------------------------------------------------------------


def test_voltage_monotone_in_frequency():
    v_low = voltage_at_frequency(1.0, 1.0, 3.6, PARAMS)
    v_mid = voltage_at_frequency(2.4, 1.0, 3.6, PARAMS)
    v_high = voltage_at_frequency(3.6, 1.0, 3.6, PARAMS)
    assert v_low == pytest.approx(PARAMS.v_min)
    assert v_high == pytest.approx(PARAMS.v_max)
    assert v_low < v_mid < v_high


def test_voltage_clamped_outside_range():
    assert voltage_at_frequency(0.5, 1.0, 3.6, PARAMS) == pytest.approx(PARAMS.v_min)
    assert voltage_at_frequency(5.0, 1.0, 3.6, PARAMS) == pytest.approx(PARAMS.v_max)


def test_core_dynamic_power_scales_with_cores_and_activity():
    base = core_dynamic_power(2.4, 1.0, 3.6, 10, 0.8, PARAMS)
    more_cores = core_dynamic_power(2.4, 1.0, 3.6, 20, 0.8, PARAMS)
    more_activity = core_dynamic_power(2.4, 1.0, 3.6, 10, 1.0, PARAMS)
    assert more_cores == pytest.approx(2 * base)
    assert more_activity > base


def test_core_dynamic_power_superlinear_in_frequency():
    p1 = core_dynamic_power(1.2, 1.0, 3.6, 28, 0.9, PARAMS)
    p2 = core_dynamic_power(2.4, 1.0, 3.6, 28, 0.9, PARAMS)
    # Doubling frequency raises voltage too, so power more than doubles.
    assert p2 > 2.0 * p1


def test_uncore_and_dram_power_bounds():
    low = uncore_power(1.2, 1.2, 2.4, 0.0, PARAMS)
    high = uncore_power(2.4, 1.2, 2.4, 1.0, PARAMS)
    assert PARAMS.uncore_idle_power <= low < high <= PARAMS.uncore_max_power + 1e-9
    assert dram_power(0.0, PARAMS) == pytest.approx(PARAMS.dram_idle_power)
    assert dram_power(1.0, PARAMS) == pytest.approx(PARAMS.dram_max_power)


def test_static_power_increases_with_temperature():
    cold = static_power(40.0, PARAMS)
    hot = static_power(90.0, PARAMS)
    assert hot > cold


def test_package_power_higher_for_compute_bound():
    compute = make_demand(core_fraction=0.9, memory_fraction=0.05, comm_fraction=0.0,
                          activity_factor=1.0, dram_intensity=0.2)
    memory = make_demand(core_fraction=0.1, memory_fraction=0.8, comm_fraction=0.0,
                         activity_factor=0.6, dram_intensity=0.2)
    p_compute = package_power(compute, 2.4, 2.4, 28, 1.0, 3.6, 1.2, 2.4, PARAMS)
    p_memory = package_power(memory, 2.4, 2.4, 28, 1.0, 3.6, 1.2, 2.4, PARAMS)
    assert p_compute > p_memory


# -- duration ------------------------------------------------------------------------


def test_phase_duration_at_reference_point():
    demand = make_demand(comm_fraction=0.0, core_fraction=0.6, memory_fraction=0.3)
    duration = phase_duration(demand, 2.4, 2.4, 1, 2.4, 2.4, PARAMS)
    assert duration == pytest.approx(demand.ref_seconds, rel=1e-6)


def test_phase_duration_core_frequency_sensitivity():
    compute = make_demand(core_fraction=0.9, memory_fraction=0.05, comm_fraction=0.0)
    memory = make_demand(core_fraction=0.05, memory_fraction=0.9, comm_fraction=0.0)
    slow_compute = phase_duration(compute, 1.2, 2.4, 1, 2.4, 2.4, PARAMS)
    slow_memory = phase_duration(memory, 1.2, 2.4, 1, 2.4, 2.4, PARAMS)
    # Halving core frequency hurts the compute-bound phase much more.
    assert slow_compute / compute.ref_seconds > slow_memory / memory.ref_seconds


def test_phase_duration_uncore_sensitivity():
    memory = make_demand(core_fraction=0.05, memory_fraction=0.9, comm_fraction=0.0)
    fast = phase_duration(memory, 2.4, 2.4, 1, 2.4, 2.4, PARAMS)
    slow = phase_duration(memory, 2.4, 1.2, 1, 2.4, 2.4, PARAMS)
    assert slow > fast


def test_phase_duration_comm_override():
    demand = make_demand(comm_fraction=0.5, core_fraction=0.3, memory_fraction=0.2)
    without = phase_duration(demand, 2.4, 2.4, 1, 2.4, 2.4, PARAMS)
    with_override = phase_duration(
        demand, 2.4, 2.4, 1, 2.4, 2.4, PARAMS, comm_seconds_override=5.0
    )
    assert with_override > without


def test_phase_duration_invalid_inputs():
    demand = make_demand()
    with pytest.raises(ValueError):
        phase_duration(demand, -1.0, 2.4, 1, 2.4, 2.4, PARAMS)
    with pytest.raises(ValueError):
        phase_duration(demand, 2.4, 2.4, 0, 2.4, 2.4, PARAMS)


def test_effective_ipc_and_flops_positive():
    demand = make_demand()
    duration = phase_duration(demand, 2.4, 2.4, 1, 2.4, 2.4, PARAMS)
    assert effective_ipc(demand, duration, 2.4, 1, 2.4) > 0
    assert effective_flops(demand, duration) > 0
    assert effective_ipc(demand, 0.0, 2.4, 1, 2.4) == 0.0
    assert effective_flops(demand, 0.0) == 0.0


def test_power_model_params_validation():
    with pytest.raises(ValueError):
        PowerModelParams(v_min=1.2, v_max=1.0)
    with pytest.raises(ValueError):
        PowerModelParams(core_capacitance=-1.0)
    with pytest.raises(ValueError):
        PowerModelParams(static_power=-5.0)


@settings(max_examples=40, deadline=None)
@given(
    freq=st.floats(min_value=1.0, max_value=3.6),
    cores=st.integers(min_value=1, max_value=56),
    activity=st.floats(min_value=0.05, max_value=1.2),
)
def test_property_core_power_nonnegative_and_monotone_in_cores(freq, cores, activity):
    p = core_dynamic_power(freq, 1.0, 3.6, cores, activity, PARAMS)
    p_more = core_dynamic_power(freq, 1.0, 3.6, cores + 1, activity, PARAMS)
    assert p >= 0.0
    assert p_more >= p


@settings(max_examples=40, deadline=None)
@given(
    core_fraction=st.floats(min_value=0.0, max_value=0.7),
    memory_fraction=st.floats(min_value=0.0, max_value=0.3),
    freq=st.floats(min_value=1.0, max_value=3.6),
)
def test_property_duration_decreases_with_frequency(core_fraction, memory_fraction, freq):
    demand = make_demand(
        core_fraction=core_fraction, memory_fraction=memory_fraction, comm_fraction=0.0
    )
    at_freq = phase_duration(demand, freq, 2.4, 1, 2.4, 2.4, PARAMS)
    at_max = phase_duration(demand, 3.6, 2.4, 1, 2.4, 2.4, PARAMS)
    assert at_max <= at_freq + 1e-9
