"""Tests for the CPU package model (P-states, caps, execution)."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import effective_flops, effective_ipc, phase_duration
from repro.apps.mpi import SPIN_DEMAND, RegionRecord, busy_wait_power_w
from repro.hardware import power_model as pm
from repro.hardware.cpu import CpuPackage, CpuSpec, PhaseExecution
from repro.hardware.node import Node, NodePhaseResult, NodeSpec
from repro.hardware.power_model import PowerModelParams
from repro.hardware.state import ClusterState
from repro.hardware.variation import VariationDraw
from repro.hardware.workload import PhaseDemand


def compute_demand(seconds=1.0):
    return PhaseDemand(
        "compute", seconds, core_fraction=0.85, memory_fraction=0.1,
        activity_factor=1.0, dram_intensity=0.2, ref_threads=28,
    )


def memory_demand(seconds=1.0):
    return PhaseDemand(
        "memory", seconds, core_fraction=0.1, memory_fraction=0.8,
        activity_factor=0.55, dram_intensity=0.9, ref_threads=28,
    )


def test_cpu_spec_validation():
    with pytest.raises(ValueError):
        CpuSpec(cores=0)
    with pytest.raises(ValueError):
        CpuSpec(freq_min_ghz=3.0, freq_base_ghz=2.0)
    with pytest.raises(ValueError):
        CpuSpec(min_power_cap_w=300.0, tdp_w=200.0)


def test_pstates_cover_range_descending():
    spec = CpuSpec()
    pstates = spec.pstates()
    freqs = [p.frequency_ghz for p in pstates]
    assert freqs[0] == pytest.approx(spec.freq_max_ghz)
    assert freqs[-1] == pytest.approx(spec.freq_min_ghz)
    assert freqs == sorted(freqs, reverse=True)


def test_default_power_cap_is_tdp():
    pkg = CpuPackage()
    assert pkg.power_cap_w == pytest.approx(pkg.spec.tdp_w)


def test_set_frequency_snaps_to_pstate():
    pkg = CpuPackage()
    granted = pkg.set_frequency(2.437)
    assert granted <= 2.437
    assert granted in [p.frequency_ghz for p in pkg.pstates]


def test_set_frequency_clamped_to_range():
    pkg = CpuPackage()
    assert pkg.set_frequency(10.0) <= pkg.max_frequency_ghz
    assert pkg.set_frequency(0.1) == pytest.approx(pkg.spec.freq_min_ghz)


def test_set_uncore_clamped():
    pkg = CpuPackage()
    assert pkg.set_uncore_frequency(0.2) == pytest.approx(pkg.spec.uncore_min_ghz)
    assert pkg.set_uncore_frequency(9.0) == pytest.approx(pkg.spec.uncore_max_ghz)


def test_set_power_cap_clamped_and_reset():
    pkg = CpuPackage()
    assert pkg.set_power_cap(10.0) == pytest.approx(pkg.spec.min_power_cap_w)
    assert pkg.set_power_cap(10_000.0) == pytest.approx(pkg.spec.tdp_w)
    assert pkg.set_power_cap(None) == pytest.approx(pkg.spec.tdp_w)


def test_power_cap_reduces_effective_frequency_for_compute():
    pkg = CpuPackage()
    pkg.set_frequency(pkg.spec.freq_base_ghz)
    uncapped_freq, _, _ = pkg.effective_frequency(compute_demand())
    pkg.set_power_cap(pkg.spec.min_power_cap_w)
    capped_freq, capped, _ = pkg.effective_frequency(compute_demand())
    assert capped
    assert capped_freq < uncapped_freq


def test_memory_bound_tolerates_cap_better_than_compute():
    pkg_a, pkg_b = CpuPackage(), CpuPackage()
    for pkg in (pkg_a, pkg_b):
        pkg.set_frequency(pkg.spec.freq_max_ghz)
        pkg.set_power_cap(130.0)
    freq_compute, _, _ = pkg_a.effective_frequency(compute_demand())
    freq_memory, _, _ = pkg_b.effective_frequency(memory_demand())
    assert freq_memory >= freq_compute


def test_execute_respects_power_cap():
    pkg = CpuPackage()
    pkg.set_power_cap(120.0)
    result = pkg.execute(compute_demand(), threads=28)
    assert result.power_w <= 120.0 + 1e-6


def _busy_seconds(pkg):
    """The package's busy-seconds column entry in its cluster state."""
    return float(pkg._state.pkg_busy_seconds[pkg._index])


def test_execute_accumulates_energy_and_busy_time():
    pkg = CpuPackage()
    r1 = pkg.execute(compute_demand(), threads=28)
    r2 = pkg.execute(compute_demand(), threads=28)
    assert pkg.energy_j == pytest.approx(r1.energy_j + r2.energy_j)
    assert _busy_seconds(pkg) == pytest.approx(r1.duration_s + r2.duration_s)


def test_execute_lower_frequency_longer_duration_less_power():
    fast, slow = CpuPackage(), CpuPackage()
    fast.set_frequency(fast.spec.freq_base_ghz)
    slow.set_frequency(slow.spec.freq_min_ghz)
    r_fast = fast.execute(compute_demand(), threads=28)
    r_slow = slow.execute(compute_demand(), threads=28)
    assert r_slow.duration_s > r_fast.duration_s
    assert r_slow.power_w < r_fast.power_w


def test_execute_derived_efficiency_metrics():
    pkg = CpuPackage()
    result = pkg.execute(compute_demand(), threads=28)
    assert result.flops_per_watt == pytest.approx(result.flops / result.power_w)
    assert result.ipc_per_watt == pytest.approx(result.ipc / result.power_w)
    assert result.energy_delay_product == pytest.approx(result.energy_j * result.duration_s)


def test_execute_invalid_threads():
    pkg = CpuPackage()
    with pytest.raises(ValueError):
        pkg.execute(compute_demand(), threads=0)


def test_variation_scales_power():
    efficient = CpuPackage(variation=VariationDraw(0.9, 1.0, 1.0))
    hungry = CpuPackage(variation=VariationDraw(1.1, 1.0, 1.0))
    p_eff = efficient.power_at(compute_demand())
    p_hungry = hungry.power_at(compute_demand())
    assert p_hungry > p_eff


def test_variation_scales_turbo():
    slow_part = CpuPackage(variation=VariationDraw(1.0, 0.9, 1.0))
    fast_part = CpuPackage(variation=VariationDraw(1.0, 1.05, 1.0))
    assert fast_part.max_frequency_ghz > slow_part.max_frequency_ghz


def test_idle_power_below_loaded_power():
    pkg = CpuPackage()
    assert pkg.idle_power_w() < pkg.power_at(compute_demand())


def test_temperature_rises_under_load():
    pkg = CpuPackage()
    start = pkg.thermal.temperature_c
    for _ in range(20):
        pkg.execute(compute_demand(5.0), threads=28)
    assert pkg.thermal.temperature_c > start


# -- reference: the numpy-clipped scalar path, recomputing per probe -----------
#
# The package model's scalar path must reproduce this bit for bit: every
# clamp through ``np.clip``, the whole power model re-evaluated for every
# probed P-state, the power recomputed after the walk, and the candidate
# P-states rebuilt from the SKU on every call.


def _ref_voltage(freq, freq_min, freq_max, params):
    frac = (freq - freq_min) / (freq_max - freq_min)
    frac = float(np.clip(frac, 0.0, 1.0))
    return params.v_min + (params.v_max - params.v_min) * frac


def _ref_static(temperature, params):
    delta = temperature - params.ref_temperature
    return params.static_power * max(0.2, 1.0 + params.leakage_temp_coeff * delta)


def _ref_package_power(demand, freq, uncore, cores, freq_min, freq_max, uncore_min,
                       uncore_max, params, efficiency, temperature):
    busy_weight = (
        demand.core_fraction * 1.0
        + demand.memory_fraction * 0.55
        + demand.comm_fraction * 0.35
        + demand.other_fraction * 0.4
    )
    activity = demand.activity_factor * busy_weight
    volt = _ref_voltage(freq, freq_min, freq_max, params)
    per_core = params.core_capacitance * activity * volt * volt * freq
    p_core = float(per_core * cores * efficiency)
    frac = float(np.clip((uncore - uncore_min) / (uncore_max - uncore_min), 0.0, 1.0))
    utilization = 0.3 + 0.7 * float(np.clip(demand.dram_intensity, 0.0, 1.0))
    p_uncore = params.uncore_idle_power + (
        (params.uncore_max_power - params.uncore_idle_power) * frac * utilization
    )
    p_static = _ref_static(temperature, params)
    intensity = float(np.clip(demand.dram_intensity, 0.0, 1.0))
    p_dram = params.dram_idle_power + (params.dram_max_power - params.dram_idle_power) * intensity
    return p_core + p_uncore + p_static + p_dram


def _ref_power_at(pkg, demand, freq, active_cores=None):
    spec = pkg.spec
    cores = spec.cores if active_cores is None else min(active_cores, spec.cores)
    temperature = pkg.thermal.temperature_c
    base = _ref_package_power(
        demand, freq, pkg.uncore_ghz, cores, spec.freq_min_ghz, pkg.max_frequency_ghz,
        spec.uncore_min_ghz, spec.uncore_max_ghz, spec.params,
        pkg.variation.power_efficiency, temperature,
    )
    return base + _ref_static(temperature, spec.params) * (pkg.variation.leakage_scale - 1.0)


def _ref_effective_frequency(pkg, demand, active_cores=None):
    """``(freq, capped, probes)``: the list-building walk."""
    target, cap = pkg.frequency_ghz, pkg.power_cap_w
    candidates = [
        p.frequency_ghz for p in pkg.spec.pstates() if p.frequency_ghz <= target + 1e-9
    ]
    if not candidates:
        candidates = [pkg.spec.freq_min_ghz]
    for probes, freq in enumerate(candidates, start=1):
        if _ref_power_at(pkg, demand, freq, active_cores) <= cap + 1e-9:
            return freq, freq < target - 1e-9, probes
    return candidates[-1], True, len(candidates)


def _ref_execute(pkg, demand, threads, comm_seconds_override):
    """Every PhaseExecution field but the temperature, from the pre-phase state."""
    spec = pkg.spec
    threads = spec.cores if threads is None else min(int(threads), spec.cores)
    ref_freq = spec.freq_base_ghz
    freq, capped, _ = _ref_effective_frequency(pkg, demand, active_cores=threads)
    duration = phase_duration(
        demand, freq, pkg.uncore_ghz, threads, ref_freq, spec.uncore_max_ghz, spec.params,
        comm_seconds_override=comm_seconds_override,
    )
    power = _ref_power_at(pkg, demand, freq, active_cores=threads)
    power = min(power, max(pkg.power_cap_w, spec.min_power_cap_w))
    return dict(
        demand=demand, duration_s=duration, power_w=power, energy_j=power * duration,
        frequency_ghz=freq, uncore_ghz=pkg.uncore_ghz, threads=threads,
        ipc=effective_ipc(demand, duration, freq, threads, ref_freq),
        flops=effective_flops(demand, duration), power_capped=capped,
    )


def _ref_busy_wait_power_w(node):
    total = node.spec.platform_power_w
    for pkg in node.packages:
        freq, _, _ = _ref_effective_frequency(pkg, SPIN_DEMAND)
        total += _ref_power_at(pkg, SPIN_DEMAND, freq)
    return total


def _ref_clamp_frequency(pkg, freq_ghz):
    freq = float(np.clip(freq_ghz, pkg.spec.freq_min_ghz, pkg.max_frequency_ghz))
    freqs = np.array([p.frequency_ghz for p in pkg.spec.pstates()])
    feasible = freqs[freqs <= freq + 1e-9]
    return float(freqs.min()) if feasible.size == 0 else float(feasible.max())


# -- property: the scalar path equals the reference bit for bit ---------------

SPEC = CpuSpec()


@st.composite
def demands(draw):
    core = draw(st.floats(0.0, 1.0))
    memory = draw(st.floats(0.0, 1.0 - core))
    comm = draw(st.floats(0.0, max(0.0, 1.0 - core - memory)))
    return PhaseDemand(
        "probe",
        draw(st.floats(0.0, 50.0)),
        core_fraction=core,
        memory_fraction=memory,
        comm_fraction=comm,
        activity_factor=draw(st.floats(0.0, 1.5)),
        dram_intensity=draw(st.floats(0.0, 1.0)),
        serial_fraction=draw(st.floats(0.0, 1.0)),
        ref_threads=draw(st.integers(1, 2 * SPEC.cores)),
        tags=draw(st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2)),
    )


@st.composite
def cpu_specs(draw):
    """The default SKU, or one with its own P-state grid and power-model constants."""
    if draw(st.booleans()):
        return SPEC
    freq_min = draw(st.floats(0.5, 1.6))
    freq_max = draw(st.floats(freq_min + 0.5, 4.2))
    uncore_min = draw(st.floats(0.8, 1.6))
    tdp = draw(st.floats(90.0, 300.0))
    v_min = draw(st.floats(0.5, 0.9))
    params = PowerModelParams(
        v_min=v_min,
        v_max=draw(st.floats(v_min + 0.1, 1.4)),
        core_capacitance=draw(st.floats(0.5, 6.0)),
        static_power=draw(st.floats(0.0, 40.0)),
        leakage_temp_coeff=draw(st.floats(0.0, 0.01)),
        ref_temperature=draw(st.floats(40.0, 80.0)),
        uncore_max_power=draw(st.floats(10.0, 40.0)),
        uncore_idle_power=draw(st.floats(0.0, 10.0)),
        dram_max_power=draw(st.floats(10.0, 50.0)),
        dram_idle_power=draw(st.floats(0.0, 10.0)),
        uncore_perf_exponent=draw(st.floats(0.3, 1.2)),
    )
    return CpuSpec(
        model="probe",
        cores=draw(st.integers(1, 64)),
        freq_min_ghz=freq_min,
        freq_base_ghz=draw(st.floats(freq_min, freq_max)),
        freq_max_ghz=freq_max,
        freq_step_ghz=draw(st.sampled_from([0.05, 0.1, 0.125, 0.2, 0.25, 0.3])),
        uncore_min_ghz=uncore_min,
        uncore_max_ghz=draw(st.floats(uncore_min + 0.2, 3.0)),
        tdp_w=tdp,
        min_power_cap_w=draw(st.floats(20.0, tdp)),
        params=params,
    )


variations = st.builds(
    VariationDraw,
    power_efficiency=st.floats(0.7, 1.4),
    max_turbo_scale=st.floats(0.85, 1.1),
    leakage_scale=st.floats(0.5, 1.8),
)
caps = st.one_of(st.none(), st.floats(SPEC.min_power_cap_w, SPEC.tdp_w))
#: Targets written straight into the state: off the P-state grid, below
#: ``freq_min`` and above the part's turbo limit.
targets = st.floats(0.2, 4.5)
#: Uncore settings written straight into the state, outside the range too.
uncores = st.floats(0.6, 3.0)
temperatures = st.floats(-250.0, 130.0)
core_counts = st.one_of(
    st.sampled_from([None, 1, SPEC.cores, SPEC.cores + 9]), st.integers(1, 2 * SPEC.cores)
)


def _set_up(pkg, state, cell, target, uncore, cap, temperature):
    state.pkg_freq_target_ghz[cell] = target
    state.pkg_uncore_ghz[cell] = uncore
    pkg.set_power_cap(cap)
    pkg.thermal.reset(temperature)


def _fields(record):
    """Field name to value: ``_asdict()`` of a result record (a named tuple),
    ``dataclasses.fields`` of a dataclass such as ``PhaseDemand``."""
    if isinstance(record, tuple):
        return record._asdict()
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


@settings(max_examples=300, deadline=None)
@given(
    spec=cpu_specs(), demand=demands(), variation=variations, cap=caps, target=targets,
    uncore=uncores, temperature=temperatures, cores=core_counts,
    comm=st.one_of(st.none(), st.floats(-1.0, 5.0)),
)
def test_package_physics_matches_reference(
    spec, demand, variation, cap, target, uncore, temperature, cores, comm
):
    state = ClusterState(1, 1)
    pkg = CpuPackage(spec, variation, state=state, index=(0, 0))
    _set_up(pkg, state, (0, 0), target, uncore, cap, temperature)

    freq, capped, power = pkg.effective_frequency(demand, active_cores=cores)
    ref_freq, ref_capped, _ = _ref_effective_frequency(pkg, demand, active_cores=cores)
    assert (freq, capped) == (ref_freq, ref_capped)
    assert power == _ref_power_at(pkg, demand, freq, active_cores=cores)
    assert power == pkg.power_at(demand, freq_ghz=freq, active_cores=cores)

    expected = _ref_execute(pkg, demand, cores, comm)
    expected["temperature_c"] = _ref_temperature(pkg, temperature, expected)
    result = pkg.execute(demand, threads=cores, comm_seconds_override=comm)
    assert _fields(result) == expected
    assert pkg.energy_j == expected["energy_j"]
    assert _busy_seconds(pkg) == expected["duration_s"]


def _ref_temperature(pkg, temperature, expected):
    """The die temperature after the expected phase, on a fresh package."""
    twin = CpuPackage(pkg.spec, pkg.variation)
    twin.thermal.reset(temperature)
    return twin.thermal.advance(expected["power_w"], expected["duration_s"])


@settings(max_examples=100, deadline=None)
@given(
    spec=cpu_specs(), demand=demands(), variation=st.tuples(variations, variations),
    cap=st.tuples(caps, caps), target=st.tuples(targets, targets),
    uncore=st.tuples(uncores, uncores), temperature=st.tuples(temperatures, temperatures),
    threads=st.one_of(st.none(), st.integers(-3, 4 * SPEC.cores)),
    comm=st.one_of(st.none(), st.floats(-1.0, 5.0)),
)
def test_node_phase_matches_reference_aggregation(
    spec, demand, variation, cap, target, uncore, temperature, threads, comm
):
    node = Node(NodeSpec(n_sockets=2, cpu=spec), variations=list(variation))
    for i, pkg in enumerate(node.packages):
        _set_up(pkg, node.cluster_state, (0, i), target[i], uncore[i], cap[i], temperature[i])
    total = node.spec.total_cores if threads is None else max(1, min(threads, 2 * spec.cores))
    expected = []
    for pkg, start_temperature in zip(node.packages, temperature):
        outcome = _ref_execute(pkg, demand, max(1, total // 2), comm)
        outcome["temperature_c"] = _ref_temperature(pkg, start_temperature, outcome)
        expected.append(outcome)

    result = node.execute_phase(demand, threads=threads, comm_seconds_override=comm)
    assert [_fields(execution) for execution in result.per_package] == expected
    duration = max(e["duration_s"] for e in expected)
    power = sum(e["power_w"] for e in expected) + node.spec.platform_power_w
    assert _fields(result) == dict(
        duration_s=duration,
        power_w=power,
        energy_j=power * duration,
        frequency_ghz=min(e["frequency_ghz"] for e in expected),
        ipc=sum(e["ipc"] for e in expected) / 2,
        flops=sum(e["flops"] for e in expected),
        power_capped=any(e["power_capped"] for e in expected),
        per_package=result.per_package,
    )
    assert node.current_power_w == power
    for i, outcome in enumerate(expected):
        assert node.rapl.domain(f"package-{i}").total_energy_j() == outcome["energy_j"] * 0.8
        assert node.rapl.domain(f"dram-{i}").total_energy_j() == outcome["energy_j"] * 0.2


@settings(max_examples=200, deadline=None)
@given(demand=demands(), factor=st.one_of(st.floats(0.0, 1e3), st.floats(0.0, 1e308)))
def test_scaled_copies_like_dataclasses_replace(demand, factor):
    try:
        expected = dataclasses.replace(demand, ref_seconds=demand.ref_seconds * factor)
    except ValueError:
        with pytest.raises(ValueError):
            demand.scaled(factor)
        return
    scaled = demand.scaled(factor)
    assert type(scaled) is PhaseDemand
    assert _fields(scaled) == _fields(expected)
    assert scaled.tags is demand.tags


def _residual(demand):
    return max(0.0, 1.0 - demand.core_fraction - demand.memory_fraction - demand.comm_fraction)


@settings(max_examples=200, deadline=None)
@given(
    demand=demands(),
    factor=st.floats(0.0, 1e3),
    share=st.floats(0.0, 1.0),
    tags=st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2),
)
def test_other_fraction_is_the_residual_on_every_copy(demand, factor, share, tags):
    """Stored once per demand, yet bit-equal to the residual of the fields
    after construction, ``scaled``, ``with_tags`` and ``dataclasses.replace``."""
    moved = dataclasses.replace(
        demand,
        core_fraction=demand.core_fraction * share,
        memory_fraction=demand.memory_fraction * share,
    )
    for copy in (demand, demand.scaled(factor), demand.with_tags(**tags), moved):
        assert copy.other_fraction.hex() == _residual(copy).hex()
    assert "other_fraction" not in {f.name for f in dataclasses.fields(PhaseDemand)}
    assert "other_fraction" not in repr(demand)


#: The field order of the records when they were frozen dataclasses.
RECORD_FIELDS = {
    PhaseExecution: (
        "demand", "duration_s", "power_w", "energy_j", "frequency_ghz", "uncore_ghz",
        "threads", "ipc", "flops", "power_capped", "temperature_c",
    ),
    NodePhaseResult: (
        "duration_s", "power_w", "energy_j", "frequency_ghz", "ipc", "flops",
        "power_capped", "per_package",
    ),
    RegionRecord: ("hostname", "region", "iteration", "result", "wait_s", "wait_power_w"),
}


def test_result_records_keep_fields_properties_and_immutability():
    node = Node(NodeSpec(n_sockets=2))
    result = node.execute_phase(compute_demand(), threads=40)
    execution = result.per_package[0]
    record = RegionRecord("node0000", "compute", 3, result, 0.25, 150.0)
    for rec in (execution, result, record):
        assert type(rec)._fields == RECORD_FIELDS[type(rec)]
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[1], 0.0)
        assert pickle.loads(pickle.dumps(rec)) == rec

    assert execution.energy_delay_product == execution.energy_j * execution.duration_s
    for rec in (execution, result):
        assert rec.flops_per_watt == rec.flops / rec.power_w
        assert rec.ipc_per_watt == rec.ipc / rec.power_w
        unpowered = rec._replace(power_w=0.0)
        assert unpowered.flops_per_watt == unpowered.ipc_per_watt == 0.0
    assert record.total_seconds == result.duration_s + 0.25
    assert record.total_energy_j == result.energy_j + 0.25 * 150.0


def test_packages_of_one_sku_share_their_walk_table():
    first = CpuPackage(CpuSpec())
    second = CpuPackage(CpuSpec(), VariationDraw(1.2, 0.9, 1.3))
    assert first._table is second._table
    assert CpuPackage(CpuSpec(freq_step_ghz=0.2))._table is not first._table


def _same(*values):
    """Equal floats, counting NaN equal to NaN."""
    return len({repr(v) for v in values}) == 1


@settings(max_examples=150, deadline=None)
@given(
    spec=cpu_specs(),
    variation=variations,
    request=st.one_of(st.none(), st.floats(-50.0, 500.0), st.just(float("nan"))),
)
def test_knob_setters_match_reference(spec, variation, request):
    pkg = CpuPackage(spec, variation)
    if request is not None:
        want = _ref_clamp_frequency(pkg, request)
        assert pkg.clamp_frequency(request) == want
        assert pkg.set_frequency(request) == pkg.frequency_ghz == want
        want = float(np.clip(request, spec.uncore_min_ghz, spec.uncore_max_ghz))
        assert _same(pkg.set_uncore_frequency(request), pkg.uncore_ghz, want)
    want = spec.tdp_w if request is None else float(
        np.clip(request, spec.min_power_cap_w, spec.tdp_w)
    )
    assert _same(pkg.set_power_cap(request), pkg.power_cap_w, want)


@settings(max_examples=100, deadline=None)
@given(
    spec=cpu_specs(), variation=st.tuples(variations, variations), cap=st.tuples(caps, caps),
    target=st.tuples(targets, targets), uncore=st.tuples(uncores, uncores),
    temperature=st.tuples(temperatures, temperatures),
)
def test_busy_wait_power_matches_reference(spec, variation, cap, target, uncore, temperature):
    node = Node(NodeSpec(n_sockets=2, cpu=spec), variations=list(variation))
    for i, pkg in enumerate(node.packages):
        _set_up(pkg, node.cluster_state, (0, i), target[i], uncore[i], cap[i], temperature[i])
    assert busy_wait_power_w(node) == _ref_busy_wait_power_w(node)


def test_reference_walk_falls_back_below_lowest_pstate():
    """A cap under the lowest P-state's power ends the walk at the bottom."""
    pkg = CpuPackage(SPEC, VariationDraw(1.4, 1.0, 1.8))
    pkg.set_frequency(SPEC.freq_max_ghz)
    pkg.set_power_cap(SPEC.min_power_cap_w)
    demand = compute_demand()
    lowest = pkg.pstates[-1].frequency_ghz
    assert pkg.power_at(demand, freq_ghz=lowest) > pkg.power_cap_w
    freq, capped, power = pkg.effective_frequency(demand)
    assert (freq, capped) == (lowest, True) == _ref_effective_frequency(pkg, demand)[:2]
    assert power == _ref_power_at(pkg, demand, lowest)
    assert pkg.execute(demand).power_w == pkg.power_cap_w


# -- structure: one P-state walk per power evaluation, no numpy on scalars ----


@pytest.fixture
def walks(monkeypatch):
    """The ``(freqs, start, (freq, power))`` of every P-state walk."""
    calls = []
    real = pm.pstate_walk

    def recording(demand, freqs, start, *args):
        result = real(demand, freqs, start, *args)
        calls.append((freqs, start, result))
        return result

    monkeypatch.setattr(pm, "pstate_walk", recording)
    return calls


def test_execute_evaluates_static_terms_once_and_core_term_per_probe(walks):
    """One walk per ``execute`` and per ``power_at``: it computes the
    frequency-independent terms once and the core term for each P-state it
    probes, down to the first that fits.  No power is evaluated after it."""
    pkg = CpuPackage()
    pkg.set_frequency(pkg.spec.freq_max_ghz)
    pkg.set_power_cap(130.0)
    _, _, probes = _ref_effective_frequency(pkg, compute_demand(), active_cores=28)
    assert probes >= 3
    freq, _, power = pkg.effective_frequency(compute_demand(), active_cores=28)
    walks.clear()
    assert pkg.power_at(compute_demand(), freq_ghz=freq, active_cores=28) == power
    assert [(freqs, start) for freqs, start, _ in walks] == [((freq,), 0)]
    walks.clear()
    result = pkg.execute(compute_demand(), threads=28)
    [(freqs, start, walked)] = walks
    assert walked == (freq, power)
    assert freqs.index(freq) - start + 1 == probes
    assert (result.frequency_ghz, result.power_w) == (freq, min(power, pkg.power_cap_w))


def test_busy_wait_evaluates_static_terms_once_per_package(walks):
    """One walk per package, and the node's draw is the sum of their powers."""
    node = Node(NodeSpec(n_sockets=2))
    walks.clear()
    total = busy_wait_power_w(node)
    assert len(walks) == 2
    (_, _, (_, first)), (_, _, (_, second)) = walks
    assert total == node.spec.platform_power_w + first + second


def test_scalar_path_never_calls_numpy_clip(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.clip on the scalar path")

    node = Node(NodeSpec(n_sockets=2))
    pkg = node.packages[0]
    monkeypatch.setattr(np, "clip", forbidden)
    pkg.set_frequency(2.437)
    pkg.set_uncore_frequency(9.0)
    pkg.set_power_cap(10.0)
    pkg.execute(compute_demand(), threads=28)
    busy_wait_power_w(node)
