"""Tests for RAPL, thermal model, variation model and the GPU device."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import thermal_advance, thermal_reset, thermal_steady_state
from repro.hardware.gpu import GpuDevice, GpuSpec
from repro.hardware.rapl import ENERGY_COUNTER_WRAP_J, PowerSample, RaplDomain, RaplInterface
from repro.hardware.thermal import ThermalModel, ThermalSpec
from repro.hardware.variation import VariationDraw, VariationModel


# -- RAPL ---------------------------------------------------------------------------


def test_rapl_domain_limit_clamped():
    domain = RaplDomain("package-0", 70.0, 205.0)
    assert domain.set_limit(30.0) == pytest.approx(70.0)
    assert domain.set_limit(500.0) == pytest.approx(205.0)
    assert domain._limit_enabled


def test_rapl_domain_clear_limit():
    domain = RaplDomain("package-0", 70.0, 205.0)
    domain.set_limit(100.0)
    domain.clear_limit()
    assert not domain._limit_enabled
    assert domain.limit_w == pytest.approx(205.0)


def test_rapl_energy_counter_wraps():
    domain = RaplDomain("package-0", 70.0, 205.0)
    domain.accumulate_energy(ENERGY_COUNTER_WRAP_J * 2.5)
    assert domain._wraps == 2
    assert 0 <= domain.read_energy_j() < ENERGY_COUNTER_WRAP_J
    assert domain.total_energy_j() == pytest.approx(ENERGY_COUNTER_WRAP_J * 2.5)


def test_rapl_counter_takes_a_huge_addition_in_one_step():
    """Subtracting the wrap value once per wrap never ends here: ``e - W == e``."""
    domain = RaplDomain("package-0", 70.0, 205.0)
    domain.accumulate_energy(1e22)
    assert domain._wraps == int(1e22 // ENERGY_COUNTER_WRAP_J)
    assert domain.read_energy_j() == math.fmod(1e22, ENERGY_COUNTER_WRAP_J)
    with pytest.raises(ValueError):
        domain.accumulate_energy(math.inf)
    assert domain._wraps == int(1e22 // ENERGY_COUNTER_WRAP_J)


@settings(max_examples=200, deadline=None)
@given(additions=st.lists(st.floats(0.0, 50 * ENERGY_COUNTER_WRAP_J), max_size=12))
def test_property_rapl_wrap_matches_subtracting_once_per_wrap(additions):
    domain = RaplDomain("package-0", 70.0, 205.0)
    energy, wraps = 0.0, 0
    for joules in additions:
        domain.accumulate_energy(joules)
        energy += joules
        while energy >= ENERGY_COUNTER_WRAP_J:
            energy -= ENERGY_COUNTER_WRAP_J
            wraps += 1
        assert (domain.read_energy_j(), domain._wraps) == (energy, wraps)


def test_rapl_delta_handles_wrap():
    before, after = ENERGY_COUNTER_WRAP_J - 10.0, 5.0
    assert RaplDomain.delta_energy_j(before, after) == pytest.approx(15.0)
    assert RaplDomain.delta_energy_j(10.0, 30.0) == pytest.approx(20.0)


def test_rapl_interface_for_node_has_expected_domains():
    rapl = RaplInterface.for_node(2, 70.0, 205.0)
    names = sorted(rapl._domains)
    assert "package-0" in names and "package-1" in names
    assert "dram-0" in names and "dram-1" in names
    with pytest.raises(KeyError):
        rapl.domain("package-9")


def test_rapl_node_limit_split_evenly():
    rapl = RaplInterface.for_node(2, 70.0, 205.0)
    applied = rapl.set_node_package_limit(300.0)
    assert applied == pytest.approx(300.0)
    assert rapl.domain("package-0").limit_w == pytest.approx(150.0)


def test_rapl_derive_power_sample():
    rapl = RaplInterface.for_node(1, 70.0, 205.0)
    before = rapl.read_all_energy_j()
    rapl.domain("package-0").accumulate_energy(200.0)
    after = rapl.read_all_energy_j()
    sample = rapl.derive_power(before, after, 2.0)
    assert sample.watts == pytest.approx(100.0)
    assert sample.reliable


def test_power_sample_reliability_threshold():
    assert not PowerSample(0.0, 0.01, 1.0).reliable
    assert PowerSample(0.0, 1.0, 100.0).reliable


# -- thermal ------------------------------------------------------------------------


def test_thermal_steady_state():
    model = ThermalModel()
    steady = thermal_steady_state(model, 200.0)
    assert steady == pytest.approx(model.ambient_c + model.spec.resistance_k_per_w * 200.0)


def test_thermal_advance_approaches_steady_state():
    model = ThermalModel()
    target = thermal_steady_state(model, 150.0)
    for _ in range(200):
        model.advance(150.0, 5.0)
    assert model.temperature_c == pytest.approx(target, abs=0.5)


def test_thermal_headroom_and_throttle():
    spec = ThermalSpec(throttle_temp_c=80.0)
    model = ThermalModel(spec)
    assert model.temperature_c < spec.throttle_temp_c
    model.advance(400.0, 10_000.0)
    assert model.temperature_c >= spec.throttle_temp_c


def test_thermal_reset_and_ambient_offset():
    model = ThermalModel(ambient_offset_c=5.0)
    assert model.ambient_c == pytest.approx(model.spec.ambient_c + 5.0)
    model.advance(300.0, 100.0)
    thermal_reset(model)
    assert model.temperature_c == pytest.approx(model.ambient_c)


@st.composite
def thermal_specs(draw):
    """The default spec, or one with its own RC constants and trip points."""
    if draw(st.booleans()):
        return ThermalSpec()
    ambient = draw(st.floats(-40.0, 60.0))
    throttle = draw(st.floats(ambient + 1.0, 150.0))
    return ThermalSpec(
        resistance_k_per_w=draw(st.floats(1e-3, 5.0)),
        capacitance_j_per_k=draw(st.floats(1e-2, 1e5)),
        ambient_c=ambient,
        throttle_temp_c=throttle,
        critical_temp_c=draw(st.floats(throttle + 1.0, 300.0)),
    )


thermal_steps = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e300)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(
    spec=thermal_specs(),
    offset=st.floats(-30.0, 30.0),
    start=st.floats(-250.0, 300.0),
    steps=thermal_steps,
)
# Reassociating the target sum, ambient + (offset + R * power), moves both by an ulp.
@example(spec=ThermalSpec(), offset=-4.56, start=23.1, steps=[(172.9, 30.0)])
@example(spec=ThermalSpec(), offset=-2.62, start=45.9, steps=[(158.8, 1e300)])
def test_thermal_step_matches_reference(spec, offset, start, steps):
    """Each inline step returns and stores the property-chain step's value
    bit for bit, and bumps the power-inputs version exactly once."""
    models = []
    for _ in range(2):
        owner = SimpleNamespace(power_inputs_version=0)
        model = ThermalModel(spec, ambient_offset_c=offset, version_owner=owner)
        thermal_reset(model, start)
        models.append((model, owner))
    (model, owner), (reference, _) = models

    for power, dt in steps:
        before = owner.power_inputs_version
        temperature = model.advance(power, dt)
        expected = thermal_advance(reference, power, dt)
        assert temperature == expected == model.temperature_c == reference.temperature_c
        assert owner.power_inputs_version == before + 1

    for bad_power, bad_dt in ((-power - 1e-3, dt), (power, -dt - 1e-3)):
        with pytest.raises(ValueError):
            model.advance(bad_power, bad_dt)
        with pytest.raises(ValueError):
            thermal_advance(reference, bad_power, bad_dt)
    assert model.temperature_c == temperature
    assert owner.power_inputs_version == before + 1


def test_thermal_spec_validation():
    with pytest.raises(ValueError):
        ThermalSpec(resistance_k_per_w=-1.0)
    with pytest.raises(ValueError):
        ThermalSpec(ambient_c=100.0, throttle_temp_c=90.0)


# -- variation ----------------------------------------------------------------------


def test_variation_nominal_is_unity():
    draw = VariationModel.nominal()
    assert draw.power_efficiency == 1.0
    assert draw.max_turbo_scale == 1.0


def test_variation_draw_bounds():
    model = VariationModel(power_sigma=0.1, turbo_sigma=0.05, leakage_sigma=0.2)
    rng = np.random.default_rng(0)
    draws = [model.draw(rng) for _ in range(200)]
    assert all(0.7 <= d.power_efficiency <= 1.4 for d in draws)
    assert all(0.85 <= d.max_turbo_scale <= 1.1 for d in draws)
    assert all(0.5 <= d.leakage_scale <= 1.8 for d in draws)


def test_variation_spread_matches_sigma_order():
    rng = np.random.default_rng(1)
    wide_model = VariationModel(power_sigma=0.15)
    wide = [wide_model.draw(rng) for _ in range(300)]
    rng = np.random.default_rng(1)
    narrow_model = VariationModel(power_sigma=0.02)
    narrow = [narrow_model.draw(rng) for _ in range(300)]
    assert np.std([d.power_efficiency for d in wide]) > np.std(
        [d.power_efficiency for d in narrow]
    )


def test_variation_validation():
    with pytest.raises(ValueError):
        VariationModel(power_sigma=1.5)
    with pytest.raises(ValueError):
        VariationDraw(power_efficiency=-1.0, max_turbo_scale=1.0, leakage_scale=1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_variation_draws_always_positive(seed):
    rng = np.random.default_rng(seed)
    draw = VariationModel().draw(rng)
    assert draw.power_efficiency > 0
    assert draw.max_turbo_scale > 0
    assert draw.leakage_scale > 0


# -- GPU ----------------------------------------------------------------------------


def test_gpu_power_range_and_cap():
    gpu = GpuDevice()
    assert gpu.power_at(gpu.spec.freq_max_ghz, 1.0) <= gpu.spec.max_power_w
    assert gpu.power_at(gpu.spec.freq_min_ghz, 0.0) >= gpu.spec.idle_power_w
    gpu.set_power_cap(150.0)
    result = gpu.execute(1.0)
    assert result.power_w <= 150.0 + 1e-6
    assert result.power_capped


def test_gpu_execution_slows_at_lower_frequency():
    gpu = GpuDevice()
    fast = gpu.execute(1.0)
    gpu.set_frequency(gpu.spec.freq_min_ghz)
    slow = gpu.execute(1.0)
    assert slow.duration_s > fast.duration_s
    assert gpu.energy_j == pytest.approx(fast.energy_j + slow.energy_j)


def test_gpu_spec_validation():
    with pytest.raises(ValueError):
        GpuSpec(freq_min_ghz=2.0, freq_max_ghz=1.0)
    with pytest.raises(ValueError):
        GpuSpec(idle_power_w=500.0, max_power_w=400.0)
