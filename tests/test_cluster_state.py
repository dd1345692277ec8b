"""Parity suite for the struct-of-arrays cluster state kernel.

Every vectorised whole-cluster operation must agree with the scalar
per-node/per-package loop it replaced to within 1e-9 (relative; idle
power, which node release writes in both forms, exactly), across
random DVFS settings, power caps, utilisation/allocation patterns and
thermal histories.  The scalar loops below are the seed implementations,
spelled out explicitly so the kernel is checked against the original
semantics rather than against itself.
"""

import numpy as np
import pytest

from repro.hardware.cluster import Cluster, ClusterSpec
from repro.hardware.cpu import CpuSpec
from repro.hardware.node import Node, NodeSpec
from repro.hardware.power_model import PowerModelParams
from repro.hardware.state import ClusterState
from repro.hardware.thermal import ThermalModel
from repro.hardware.variation import VariationModel
from repro.hardware.workload import PhaseDemand
from repro.node_mgmt.powercap import ClusterPowerCapManager, distribute_power_budget

REL = 1e-9


def compute_demand(seconds=1.0):
    return PhaseDemand(
        "compute", seconds, core_fraction=0.8, memory_fraction=0.12,
        activity_factor=1.0, ref_threads=56,
    )


def randomize_cluster(cluster: Cluster, seed: int) -> None:
    """Drive the cluster into a random mixed state through the scalar API."""
    rng = np.random.default_rng(seed)
    demand = compute_demand()
    for node in cluster.nodes:
        if rng.random() < 0.5:
            node.set_frequency(float(rng.uniform(1.0, 3.6)))
        if rng.random() < 0.5:
            node.set_uncore_frequency(float(rng.uniform(1.2, 2.4)))
        if rng.random() < 0.4:
            node.set_power_cap(float(rng.uniform(250.0, 550.0)))
        if rng.random() < 0.5:
            node.allocate(f"job-{node.node_id}")
            node.execute_phase(demand.scaled(float(rng.uniform(0.2, 2.0))))


# -- scalar reference loops (the seed implementations) ----------------------


def scalar_instantaneous_power(cluster: Cluster, include_idle: bool = True) -> float:
    total = 0.0
    for node in cluster.nodes:
        if node.is_free:
            total += node.idle_power_w() if include_idle else 0.0
        else:
            total += node.current_power_w
    return total


def scalar_total_idle(cluster: Cluster) -> float:
    return sum(n.idle_power_w() for n in cluster.nodes)


def scalar_total_energy(cluster: Cluster) -> float:
    return sum(n.total_energy_j() for n in cluster.nodes)


def scalar_total_tdp(cluster: Cluster) -> float:
    return sum(n.max_power_w() for n in cluster.nodes)


# -- power / energy parity ---------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vectorized_power_energy_parity_under_random_state(seed):
    cluster = Cluster(ClusterSpec(n_nodes=24), seed=seed)
    randomize_cluster(cluster, seed=100 + seed)

    assert cluster.instantaneous_power_w() == pytest.approx(
        scalar_instantaneous_power(cluster), rel=REL
    )
    assert cluster.instantaneous_power_w(include_idle=False) == pytest.approx(
        scalar_instantaneous_power(cluster, include_idle=False), rel=REL
    )
    assert cluster.total_idle_power_w() == pytest.approx(
        scalar_total_idle(cluster), rel=REL
    )
    assert cluster.total_energy_j() == pytest.approx(
        scalar_total_energy(cluster), rel=REL
    )
    assert cluster.total_tdp_w() == pytest.approx(scalar_total_tdp(cluster), rel=REL)


def test_idle_power_per_node_matches_scalar_method():
    # Exact, not approximate: Cluster.release_nodes writes the vector idle
    # power where Node.release writes the scalar one.
    cluster = Cluster(ClusterSpec(n_nodes=12), seed=5)
    randomize_cluster(cluster, seed=7)
    vec = cluster.state.idle_power_per_node()
    for i, node in enumerate(cluster.nodes):
        assert vec[i] == node.idle_power_w()


_IDLE_PARAMS = PowerModelParams(
    static_power=25.0,
    leakage_temp_coeff=0.007,
    ref_temperature=45.0,
    uncore_max_power=31.0,
    uncore_idle_power=0.0,
    dram_max_power=18.0,
    dram_idle_power=2.5,
)
_IDLE_CPU = CpuSpec(
    model="idle-probe",
    cores=40,
    freq_min_ghz=0.8,
    freq_base_ghz=2.0,
    freq_max_ghz=3.9,
    uncore_min_ghz=0.9,
    uncore_max_ghz=2.8,
    tdp_w=270.0,
    params=_IDLE_PARAMS,
)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "node_spec",
    [
        NodeSpec(n_sockets=4, cpu=_IDLE_CPU),
        NodeSpec(n_sockets=2, cpu=_IDLE_CPU, n_gpus=2, platform_power_w=85.0),
        NodeSpec(n_sockets=4, n_gpus=1),
    ],
    ids=["4s-no-uncore-idle", "2s-gpus", "4s-default-cpu-gpu"],
)
def test_idle_power_exact_on_drawn_specs_and_states(node_spec, seed):
    """The vector idle power equals the scalar one bit for bit, per package
    and per node, with temperatures and uncore frequencies drawn across and
    beyond the ranges the thermal model and the knobs produce, so the
    leakage floor and the uncore clip both engage."""
    spec = ClusterSpec(
        n_nodes=20,
        node=node_spec,
        variation=VariationModel(power_sigma=0.12, turbo_sigma=0.05, leakage_sigma=0.3),
    )
    cluster = Cluster(spec, seed=seed)
    state = cluster.state
    rng = np.random.default_rng(1000 + seed)
    for _ in range(3):
        state.pkg_temperature_c[:] = rng.uniform(-50.0, 200.0, state.pkg_temperature_c.shape)
        state.pkg_uncore_ghz[:] = rng.uniform(0.5, 3.0, state.pkg_uncore_ghz.shape)
        state.power_inputs_version += 1
        per_package = state.idle_power_per_package()
        per_node = state.idle_power_per_node()
        for i, node in enumerate(cluster.nodes):
            for s, pkg in enumerate(node.packages):
                assert per_package[i, s] == pkg.idle_power_w()
            assert per_node[i] == node.idle_power_w()


def test_gpu_nodes_included_in_idle_and_energy():
    spec = ClusterSpec(n_nodes=4, node=NodeSpec(n_gpus=2))
    cluster = Cluster(spec, seed=1)
    assert cluster.total_idle_power_w() == pytest.approx(
        scalar_total_idle(cluster), rel=REL
    )
    cluster.nodes[0].gpus[0].execute(1.0)
    assert cluster.total_energy_j() == pytest.approx(
        scalar_total_energy(cluster), rel=REL
    )


# -- free/busy partition (incremental mask) ----------------------------------


def test_free_mask_tracks_allocate_release_and_direct_assignment():
    cluster = Cluster(ClusterSpec(n_nodes=10), seed=0)
    cluster.nodes[3].allocate("a")
    cluster.nodes[7].allocate("b")
    assert list(cluster.free_node_indices()) == [0, 1, 2, 4, 5, 6, 8, 9]
    assert [n.node_id for n in cluster.allocated_nodes()] == [3, 7]
    # Several layers release nodes by assigning the attribute directly.
    cluster.nodes[3].allocated_to = None
    assert list(cluster.free_node_indices()) == [0, 1, 2, 3, 4, 5, 6, 8, 9]
    cluster.nodes[7].release()
    assert cluster.state.free_count == 10
    assert cluster.state.busy_count == 0


def test_free_nodes_order_matches_rescan_under_churn():
    cluster = Cluster(ClusterSpec(n_nodes=16), seed=2)
    rng = np.random.default_rng(3)
    for _ in range(200):
        node = cluster.nodes[int(rng.integers(0, 16))]
        if node.is_free:
            node.allocate("job")
        else:
            node.release()
        assert list(cluster.free_node_indices()) == [
            n.node_id for n in cluster.nodes if n.is_free
        ]
        assert [n.node_id for n in cluster.allocated_nodes()] == [
            n.node_id for n in cluster.nodes if not n.is_free
        ]


# -- thermal parity -----------------------------------------------------------


def test_batched_thermal_step_matches_scalar_models():
    cluster = Cluster(ClusterSpec(n_nodes=6), seed=4)
    reference = Cluster(ClusterSpec(n_nodes=6), seed=4)
    rng = np.random.default_rng(8)
    for _ in range(25):
        powers = rng.uniform(50.0, 400.0, size=(6, cluster.spec.node.n_sockets))
        dt = float(rng.uniform(0.1, 5.0))
        cluster.state.advance_thermal(powers, dt)
        for i, node in enumerate(reference.nodes):
            for s, pkg in enumerate(node.packages):
                pkg.thermal.advance(float(powers[i, s]), dt)
    for i, node in enumerate(reference.nodes):
        for s, pkg in enumerate(node.packages):
            assert cluster.state.pkg_temperature_c[i, s] == pytest.approx(
                pkg.thermal.temperature_c, rel=REL
            )


def test_standalone_thermal_model_still_scalar():
    model = ThermalModel()
    t0 = model.temperature_c
    model.advance(200.0, 30.0)
    assert model.temperature_c > t0
    model.reset()
    assert model.temperature_c == pytest.approx(model.ambient_c)


# -- variation draws ----------------------------------------------------------


def test_draw_array_bit_identical_to_draw_many():
    model = VariationModel()
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    draws = [model.draw(rng_a) for _ in range(64)]
    eff, turbo, leak = model.draw_array(rng_b, 64)
    assert [d.power_efficiency for d in draws] == eff.tolist()
    assert [d.max_turbo_scale for d in draws] == turbo.tolist()
    assert [d.leakage_scale for d in draws] == leak.tolist()


def test_cluster_construction_reproducible_across_seeds():
    a = Cluster(ClusterSpec(n_nodes=6), seed=77)
    b = Cluster(ClusterSpec(n_nodes=6), seed=77)
    assert np.array_equal(a.state.pkg_power_efficiency, b.state.pkg_power_efficiency)
    assert np.array_equal(a.state.pkg_ambient_offset_c, b.state.pkg_ambient_offset_c)


# -- power-cap distribution ----------------------------------------------------


def test_apply_power_caps_matches_scalar_set_power_cap():
    vec_cluster = Cluster(ClusterSpec(n_nodes=12), seed=13)
    ref_cluster = Cluster(ClusterSpec(n_nodes=12), seed=13)
    rng = np.random.default_rng(14)
    caps = rng.uniform(150.0, 900.0, size=12)
    caps[3] = np.nan  # uncapped
    caps[8] = np.nan

    vec_cluster.apply_power_caps(caps)
    for node, cap in zip(ref_cluster.nodes, caps):
        node.set_power_cap(None if np.isnan(cap) else float(cap))

    for vec_node, ref_node in zip(vec_cluster.nodes, ref_cluster.nodes):
        if ref_node.node_power_cap_w is None:
            assert vec_node.node_power_cap_w is None
        else:
            assert vec_node.node_power_cap_w == pytest.approx(
                ref_node.node_power_cap_w, rel=REL
            )
        for vec_pkg, ref_pkg in zip(vec_node.packages, ref_node.packages):
            assert vec_pkg.power_cap_w == pytest.approx(ref_pkg.power_cap_w, rel=REL)
        for name in sorted(vec_node.rapl._domains):
            assert vec_node.rapl.domain(name).limit_w == pytest.approx(
                ref_node.rapl.domain(name).limit_w, rel=REL
            )


def test_apply_uniform_power_cap_keeps_old_semantics():
    cluster = Cluster(ClusterSpec(n_nodes=3), seed=0)
    cluster.apply_uniform_power_cap(400.0)
    assert all(n.node_power_cap_w == pytest.approx(400.0) for n in cluster)
    cluster.apply_uniform_power_cap(None)
    assert all(n.node_power_cap_w is None for n in cluster)
    assert all(
        p.power_cap_w == pytest.approx(p.spec.tdp_w)
        for n in cluster
        for p in n.packages
    )


def test_distribute_power_budget_conserves_and_clamps():
    caps = distribute_power_budget(4000.0, 8, min_w=200.0, max_w=800.0)
    assert caps.sum() == pytest.approx(4000.0)
    assert np.all(caps >= 200.0 - 1e-9)
    assert np.all(caps <= 800.0 + 1e-9)

    # Budget above the ceiling: everyone at max.
    caps = distribute_power_budget(10_000.0, 8, min_w=200.0, max_w=800.0)
    assert np.allclose(caps, 800.0)

    # Infeasible budget: floor is respected (callers must shed load).
    caps = distribute_power_budget(100.0, 8, min_w=200.0, max_w=800.0)
    assert np.allclose(caps, 200.0)


def test_distribute_power_budget_weighted():
    weights = np.array([1.0, 1.0, 2.0, 4.0])
    caps = distribute_power_budget(1600.0, 4, min_w=100.0, max_w=1000.0, weights=weights)
    assert caps.sum() == pytest.approx(1600.0)
    # Heavier nodes get no smaller a cap.
    assert caps[3] >= caps[2] >= caps[1] - 1e-9


def test_cluster_powercap_manager_enforces_budget():
    cluster = Cluster(ClusterSpec(n_nodes=6), seed=21)
    manager = ClusterPowerCapManager(cluster)
    budget = 6 * cluster.spec.node.min_power_w + 600.0
    caps = manager.set_system_budget(budget)
    assert np.nansum(caps) <= budget + 1e-6
    assert manager.total_cap_w() <= budget + 1e-6
    manager.clear()
    assert all(n.node_power_cap_w is None for n in cluster)


# -- standalone node still self-contained -------------------------------------


def test_standalone_node_owns_private_state():
    node = Node()
    assert isinstance(node._state, ClusterState)
    assert node._state.n_nodes == 1
    node.allocate("solo")
    assert node._state.busy_count == 1
    node.release()
    assert node._state.free_count == 1
