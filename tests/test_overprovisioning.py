"""Tests for hardware overprovisioning under a cluster power bound (§4.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.lulesh import LuleshProxy
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.resource_manager.overprovisioning import (
    DARK_NODE_POWER_W,
    OverprovisioningPlanner,
    PoweredPartition,
)


def scalable_app(iterations: int = 3) -> SyntheticApplication:
    """A memory-bound app that strong-scales well (overprovisioning-friendly)."""
    return SyntheticApplication(
        "stream_like",
        [make_phase("triad", 6.0, kind="memory", comm_fraction=0.05, ref_threads=56)],
        n_iterations=iterations,
    )


def comm_heavy_app(iterations: int = 3) -> SyntheticApplication:
    """A compute-bound, communication-heavy app that scales poorly."""
    return SyntheticApplication(
        "dgemm_like",
        [
            make_phase(
                "gemm", 6.0, kind="compute", comm_fraction=0.3,
                ref_threads=56, serial_fraction=0.05,
            )
        ],
        n_iterations=iterations,
        comm_scaling=0.6,
    )


def make_planner(n_nodes: int = 6, tdp_nodes: int = 3, seed: int = 2) -> OverprovisioningPlanner:
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes), seed=seed)
    bound = tdp_nodes * cluster.spec.node.tdp_w
    return OverprovisioningPlanner(cluster, bound, seed=seed)


# ---------------------------------------------------------------------------
# PoweredPartition
# ---------------------------------------------------------------------------
def test_partition_validation():
    with pytest.raises(ValueError):
        PoweredPartition(0, 200.0)
    with pytest.raises(ValueError):
        PoweredPartition(2, 0.0)


def test_partition_budget_includes_dark_nodes():
    partition = PoweredPartition(3, 250.0)
    assert partition.budgeted_power_w(5) == pytest.approx(3 * 250.0 + 2 * DARK_NODE_POWER_W)


def test_partition_budget_rejects_too_small_cluster():
    with pytest.raises(ValueError):
        PoweredPartition(4, 250.0).budgeted_power_w(3)


def test_partition_label_mentions_gpu_choice():
    assert "+gpu" in PoweredPartition(2, 300.0, accelerators_powered=True).label()
    assert "-gpu" in PoweredPartition(2, 300.0, accelerators_powered=False).label()


# ---------------------------------------------------------------------------
# planner construction and enumeration
# ---------------------------------------------------------------------------
def test_planner_rejects_bad_bound_and_caps():
    cluster = Cluster(ClusterSpec(n_nodes=2), seed=0)
    with pytest.raises(ValueError):
        OverprovisioningPlanner(cluster, 0.0)
    with pytest.raises(ValueError):
        OverprovisioningPlanner(cluster, 1000.0, cap_levels=[])
    with pytest.raises(ValueError):
        OverprovisioningPlanner(cluster, 1000.0, cap_levels=[-5.0])


def test_feasible_partitions_respect_power_bound():
    planner = make_planner(n_nodes=6, tdp_nodes=3)
    partitions = planner.feasible_partitions()
    assert partitions
    total = len(planner.cluster)
    for partition in partitions:
        assert partition.budgeted_power_w(total) <= planner.system_power_bound_w + 1e-9


def test_feasible_partitions_respect_rank_constraint():
    planner = make_planner(n_nodes=9, tdp_nodes=9)
    lulesh = LuleshProxy()
    counts = {p.nodes_powered for p in planner.feasible_partitions(lulesh)}
    # LULESH requires a cubic rank count: 1 and 8 fit in a 9-node cluster.
    assert counts == {1, 8}


def test_feasible_partitions_include_gpu_choice_when_enabled():
    cluster = Cluster(ClusterSpec(n_nodes=3), seed=1)
    planner = OverprovisioningPlanner(
        cluster, cluster.spec.node.tdp_w * 2, include_accelerator_choice=True
    )
    partitions = planner.feasible_partitions()
    assert {p.accelerators_powered for p in partitions} == {True, False}


def test_fully_provisioned_baseline_maximizes_tdp_nodes():
    planner = make_planner(n_nodes=6, tdp_nodes=3)
    baseline = planner.fully_provisioned_baseline()
    assert baseline is not None
    assert baseline.per_node_cap_w == pytest.approx(planner.cluster.spec.node.tdp_w)
    # 3 nodes at TDP + 3 dark nodes overruns the 3-TDP bound, so only 2 fit.
    assert baseline.nodes_powered == 2


def test_fully_provisioned_baseline_none_when_bound_tiny():
    cluster = Cluster(ClusterSpec(n_nodes=2), seed=0)
    planner = OverprovisioningPlanner(cluster, 50.0, cap_levels=[40.0])
    assert planner.fully_provisioned_baseline() is None


# ---------------------------------------------------------------------------
# evaluation and optimisation
# ---------------------------------------------------------------------------
def test_evaluate_applies_caps_and_reports_positive_metrics():
    planner = make_planner(n_nodes=4, tdp_nodes=2)
    partition = PoweredPartition(2, 300.0)
    evaluation = planner.evaluate(partition, scalable_app(), max_iterations=2)
    assert evaluation.runtime_s > 0
    assert evaluation.energy_j > 0
    assert evaluation.average_power_w > 0
    for node in planner.cluster.nodes[:2]:
        assert node.node_power_cap_w == pytest.approx(300.0)


def test_evaluate_marks_dark_nodes_at_standby_power():
    planner = make_planner(n_nodes=4, tdp_nodes=2)
    planner.evaluate(PoweredPartition(2, 300.0), scalable_app(), max_iterations=1)
    for node in planner.cluster.nodes[2:]:
        assert node.current_power_w == pytest.approx(DARK_NODE_POWER_W)


def test_optimize_overprovisioning_helps_scalable_memory_bound_app():
    planner = make_planner(n_nodes=8, tdp_nodes=4)
    result = planner.optimize(scalable_app(), objective="runtime", max_iterations=3)
    best, baseline = result["best"], result["baseline"]
    assert baseline is not None
    assert best.partition.nodes_powered > baseline.partition.nodes_powered
    assert best.partition.per_node_cap_w < baseline.partition.per_node_cap_w
    assert result["speedup_over_fully_provisioned"] > 1.1


def test_optimize_compute_bound_app_prefers_fewer_tdp_nodes():
    planner = make_planner(n_nodes=8, tdp_nodes=4)
    result = planner.optimize(comm_heavy_app(), objective="runtime", max_iterations=3)
    best, baseline = result["best"], result["baseline"]
    assert baseline is not None
    # Overprovisioning buys (almost) nothing for the poorly scaling app.
    assert result["speedup_over_fully_provisioned"] == pytest.approx(1.0, abs=0.1)
    assert best.runtime_s <= baseline.runtime_s + 1e-9


def test_optimize_energy_objective_differs_from_runtime_objective():
    planner = make_planner(n_nodes=6, tdp_nodes=3)
    runtime_best = planner.optimize(scalable_app(), objective="runtime", max_iterations=2)
    energy_best = planner.optimize(scalable_app(), objective="energy", max_iterations=2)
    assert energy_best["best"].energy_j <= runtime_best["best"].energy_j + 1e-9


def test_evaluation_objective_rejects_unknown_name():
    planner = make_planner(n_nodes=2, tdp_nodes=2)
    evaluation = planner.evaluate(PoweredPartition(1, 300.0), scalable_app(), max_iterations=1)
    with pytest.raises(ValueError):
        evaluation.objective("speedup")


def test_sweep_table_rows_match_evaluations():
    planner = make_planner(n_nodes=4, tdp_nodes=2)
    partitions = [PoweredPartition(1, 300.0), PoweredPartition(2, 300.0)]
    evaluations = planner.sweep(scalable_app(), partitions=partitions, max_iterations=1)
    table = OverprovisioningPlanner.table(evaluations)
    assert len(table) == 2
    assert table[0]["nodes"] == 1.0
    assert table[1]["nodes"] == 2.0
    assert all(row["runtime_s"] > 0 for row in table)


def test_optimize_raises_when_nothing_feasible():
    cluster = Cluster(ClusterSpec(n_nodes=2), seed=0)
    planner = OverprovisioningPlanner(cluster, 60.0, cap_levels=[500.0])
    with pytest.raises(RuntimeError):
        planner.optimize(scalable_app(), max_iterations=1)


# ---------------------------------------------------------------------------
# tuner adapter
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    powered=st.integers(min_value=1, max_value=12),
    total_extra=st.integers(min_value=0, max_value=12),
    cap=st.floats(min_value=50.0, max_value=600.0),
)
def test_property_budget_monotonic_in_cap_and_count(powered, total_extra, cap):
    total = powered + total_extra
    base = PoweredPartition(powered, cap).budgeted_power_w(total)
    more_cap = PoweredPartition(powered, cap + 10.0).budgeted_power_w(total)
    assert more_cap > base
    if powered < total:
        more_nodes = PoweredPartition(powered + 1, cap).budgeted_power_w(total)
        assert more_nodes > base


@settings(max_examples=10, deadline=None)
@given(tdp_nodes=st.integers(min_value=1, max_value=4))
def test_property_feasible_set_grows_with_bound(tdp_nodes):
    cluster = Cluster(ClusterSpec(n_nodes=4), seed=1)
    tdp = cluster.spec.node.tdp_w
    smaller = OverprovisioningPlanner(cluster, tdp_nodes * tdp).feasible_partitions()
    larger = OverprovisioningPlanner(cluster, (tdp_nodes + 1) * tdp).feasible_partitions()
    assert len(larger) >= len(smaller)
    assert set(map(lambda p: p.label(), smaller)) <= set(map(lambda p: p.label(), larger))
