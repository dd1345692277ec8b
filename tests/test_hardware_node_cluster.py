"""Tests for the node and cluster models."""

import pytest

from repro.hardware.cluster import Cluster, ClusterSpec
from repro.hardware.node import Node, NodeSpec
from repro.hardware.workload import PhaseDemand


def compute_demand(seconds=1.0):
    return PhaseDemand(
        "compute", seconds, core_fraction=0.8, memory_fraction=0.12,
        activity_factor=1.0, ref_threads=56,
    )


def test_node_spec_totals():
    spec = NodeSpec(n_sockets=2)
    assert spec.total_cores == 2 * spec.cpu.cores
    assert spec.tdp_w > spec.min_power_w > 0


def test_node_spec_validation():
    with pytest.raises(ValueError):
        NodeSpec(n_sockets=0)
    with pytest.raises(ValueError):
        NodeSpec(dram_gb=0)


def test_node_allocation_lifecycle():
    node = Node()
    assert node.is_free
    node.allocate("job-1")
    assert not node.is_free
    with pytest.raises(RuntimeError):
        node.allocate("job-2")
    node.release()
    assert node.is_free
    assert node.current_power_w == pytest.approx(node.idle_power_w())


def test_node_power_cap_enforced_on_execution():
    node = Node()
    node.set_power_cap(300.0)
    result = node.execute_phase(compute_demand())
    assert result.power_w <= 300.0 + 1e-6
    assert node.node_power_cap_w == pytest.approx(300.0)


def test_node_power_cap_clamped_to_min():
    node = Node()
    applied = node.set_power_cap(1.0)
    assert applied == pytest.approx(node.spec.min_power_w)


def test_node_power_cap_cleared():
    node = Node()
    node.set_power_cap(300.0)
    node.set_power_cap(None)
    assert node.node_power_cap_w is None
    # Packages fall back to their TDP default.
    assert all(p.power_cap_w == pytest.approx(p.spec.tdp_w) for p in node.packages)


def test_node_frequency_applies_to_all_packages():
    node = Node()
    node.set_frequency(1.5)
    assert all(abs(p.frequency_ghz - 1.5) < 0.11 for p in node.packages)


def test_node_execute_updates_rapl_counters_and_energy():
    node = Node()
    before = node.rapl.total_energy_j()
    result = node.execute_phase(compute_demand())
    assert node.rapl.total_energy_j() > before
    assert node.total_energy_j() > 0
    assert result.energy_j == pytest.approx(result.power_w * result.duration_s)


def test_node_execute_includes_platform_power():
    node = Node()
    result = node.execute_phase(compute_demand())
    package_power = sum(e.power_w for e in result.per_package)
    assert result.power_w == pytest.approx(package_power + node.spec.platform_power_w)


def test_node_idle_below_max_power():
    node = Node()
    assert node.idle_power_w() < node.max_power_w()


def test_node_with_gpus_has_larger_envelope():
    plain = Node(NodeSpec(n_gpus=0))
    with_gpu = Node(NodeSpec(n_gpus=2))
    assert with_gpu.max_power_w() > plain.max_power_w()
    assert with_gpu.idle_power_w() > plain.idle_power_w()


def test_cluster_builds_requested_nodes_with_unique_hostnames():
    cluster = Cluster(ClusterSpec(n_nodes=6), seed=1)
    assert len(cluster) == 6
    hostnames = [n.hostname for n in cluster]
    assert len(set(hostnames)) == 6
    assert cluster.node(hostnames[2]).hostname == hostnames[2]
    assert cluster.node(3).node_id == 3


def test_cluster_unknown_node_raises():
    cluster = Cluster(ClusterSpec(n_nodes=2), seed=1)
    with pytest.raises(KeyError):
        cluster.node("missing")


def test_cluster_free_and_allocated_tracking():
    cluster = Cluster(ClusterSpec(n_nodes=4), seed=1)
    cluster.nodes[0].allocate("job")
    assert len(cluster.free_node_indices()) == 3
    assert len(cluster.allocated_nodes()) == 1


def test_cluster_power_accounting():
    cluster = Cluster(ClusterSpec(n_nodes=4), seed=1)
    idle = cluster.total_idle_power_w()
    assert cluster.instantaneous_power_w() == pytest.approx(idle)
    assert cluster.total_tdp_w() > idle
    assert cluster.system_power_budget_w == pytest.approx(cluster.total_tdp_w())


def test_cluster_explicit_budget_respected():
    spec = ClusterSpec(n_nodes=4, system_power_budget_w=1234.0)
    assert Cluster(spec, seed=0).system_power_budget_w == pytest.approx(1234.0)


def test_cluster_ranking_by_efficiency_is_deterministic_order():
    cluster = Cluster(ClusterSpec(n_nodes=8), seed=3)
    ranked = cluster.rank_nodes_by_efficiency()
    efficiencies = [
        sum(p.variation.power_efficiency for p in node.packages) for node in ranked
    ]
    assert efficiencies == sorted(efficiencies)


def test_cluster_uniform_power_cap():
    cluster = Cluster(ClusterSpec(n_nodes=3), seed=0)
    cluster.apply_uniform_power_cap(400.0)
    assert all(n.node_power_cap_w == pytest.approx(400.0) for n in cluster)


def test_cluster_reproducible_for_same_seed():
    a = Cluster(ClusterSpec(n_nodes=4), seed=9)
    b = Cluster(ClusterSpec(n_nodes=4), seed=9)
    for node_a, node_b in zip(a, b):
        for pkg_a, pkg_b in zip(node_a.packages, node_b.packages):
            assert pkg_a.variation.power_efficiency == pytest.approx(
                pkg_b.variation.power_efficiency
            )


def test_cluster_summary_keys():
    summary = Cluster(ClusterSpec(n_nodes=2), seed=0).summary()
    assert {"nodes", "cores", "tdp_w", "idle_w", "budget_w"} <= set(summary)
