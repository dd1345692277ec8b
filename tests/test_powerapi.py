"""Tests for the standardised interface layer (Power API / IPMI / Redfish)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import Cluster, ClusterSpec
from repro.hardware.node import Node, NodeSpec
from repro.powerapi import (
    AttrName,
    BmcEndpoint,
    ObjType,
    PowerApiContext,
    PowerApiError,
    PowerGroup,
    PowerObject,
    RedfishService,
    Role,
)
from repro.powerapi.bmc import SensorSpec
from repro.powerapi.context import ErrorCode, NodeProvider, SocketProvider
from repro.powerapi.objects import ATTRIBUTE_SPECS, AttrAccess, AttributeProvider
from repro.powerapi.roles import default_permissions


def small_cluster(n_nodes: int = 3, n_gpus: int = 0, seed: int = 7) -> Cluster:
    return Cluster(ClusterSpec(n_nodes=n_nodes, node=NodeSpec(n_gpus=n_gpus)), seed=seed)


# ---------------------------------------------------------------------------
# object tree
# ---------------------------------------------------------------------------
def test_tree_structure_matches_hardware():
    cluster = small_cluster(n_nodes=4, n_gpus=1)
    ctx = PowerApiContext.for_cluster(cluster)
    assert ctx.root.obj_type is ObjType.PLATFORM
    nodes = ctx.objects_of_type(ObjType.NODE)
    sockets = ctx.objects_of_type(ObjType.SOCKET)
    accels = ctx.objects_of_type(ObjType.ACCELERATOR)
    assert len(nodes) == 4
    assert len(sockets) == 4 * cluster.spec.node.n_sockets
    assert len(accels) == 4


def test_paths_and_find_round_trip():
    cluster = small_cluster()
    ctx = PowerApiContext.for_cluster(cluster)
    node_obj = ctx.objects_of_type(ObjType.NODE)[0]
    assert node_obj.path == f"{cluster.spec.name}/{cluster.nodes[0].hostname}"
    socket = ctx.object(f"{node_obj.path}/socket-0")
    assert socket.obj_type is ObjType.SOCKET
    assert socket.parent is node_obj
    assert socket.depth == 2


def test_find_unknown_path_raises_no_object():
    ctx = PowerApiContext.for_cluster(small_cluster())
    with pytest.raises(PowerApiError) as err:
        ctx.object("sim-cluster/not-a-node")
    assert err.value.code is ErrorCode.NO_OBJECT


def test_walk_visits_every_object_exactly_once():
    ctx = PowerApiContext.for_cluster(small_cluster(n_nodes=2, n_gpus=2))
    paths = [obj.path for obj in ctx.root.walk()]
    assert len(paths) == len(set(paths))
    # platform + 2 nodes + 2*2 sockets + 2*2 accelerators
    assert len(paths) == 1 + 2 + 4 + 4


def test_attribute_specs_cover_every_attr():
    assert set(ATTRIBUTE_SPECS) == set(AttrName)
    assert ATTRIBUTE_SPECS[AttrName.POWER].access is AttrAccess.READ_ONLY
    assert ATTRIBUTE_SPECS[AttrName.POWER_LIMIT_MAX].access is AttrAccess.READ_WRITE


def test_base_provider_exposes_nothing():
    obj = PowerObject(ObjType.BOARD, "board-0", provider=AttributeProvider())
    assert obj.readable_attrs() == []
    with pytest.raises(KeyError):
        obj.read(AttrName.POWER)


# ---------------------------------------------------------------------------
# attribute reads and writes through providers
# ---------------------------------------------------------------------------
def test_node_power_limit_write_is_applied_to_hardware():
    cluster = small_cluster()
    ctx = PowerApiContext.for_cluster(cluster, role=Role.RESOURCE_MANAGER)
    node = cluster.nodes[0]
    path = f"{cluster.spec.name}/{node.hostname}"
    applied = ctx.write(path, AttrName.POWER_LIMIT_MAX, 320.0)
    assert applied == pytest.approx(node.node_power_cap_w)
    assert ctx.read(path, AttrName.POWER_LIMIT_MAX) == pytest.approx(applied)


def test_node_power_limit_clamped_to_min():
    cluster = small_cluster()
    ctx = PowerApiContext.for_cluster(cluster, role=Role.RESOURCE_MANAGER)
    node = cluster.nodes[0]
    path = f"{cluster.spec.name}/{node.hostname}"
    applied = ctx.write(path, AttrName.POWER_LIMIT_MAX, 1.0)
    assert applied >= node.spec.min_power_w - 1e-9


def test_socket_frequency_write_granted_pstate():
    cluster = small_cluster()
    ctx = PowerApiContext.for_cluster(cluster, role=Role.RUNTIME)
    node = cluster.nodes[0]
    path = f"{cluster.spec.name}/{node.hostname}/socket-0"
    granted = ctx.write(path, AttrName.FREQ_REQUEST, 2.0)
    assert granted == pytest.approx(node.packages[0].frequency_ghz)
    assert granted <= 2.0 + 1e-9


def test_platform_power_equals_sum_of_node_power():
    cluster = small_cluster(n_nodes=5)
    ctx = PowerApiContext.for_cluster(cluster)
    expected = sum(n.idle_power_w() for n in cluster.nodes)
    assert ctx.system_power_w() == pytest.approx(expected)


def test_platform_energy_is_monotonic_under_execution():
    from repro.apps.mpi import MpiJobSimulator
    from repro.apps.stream import StreamTriad

    cluster = small_cluster(n_nodes=2)
    ctx = PowerApiContext.for_cluster(cluster)
    before = ctx.read(ctx.root, AttrName.ENERGY)
    MpiJobSimulator.evaluate(cluster.nodes, StreamTriad(), {}, max_iterations=2)
    after = ctx.read(ctx.root, AttrName.ENERGY)
    assert after > before


def test_negative_write_rejected_as_bad_value():
    ctx = PowerApiContext.for_cluster(small_cluster(), role=Role.ADMINISTRATOR)
    node_path = ctx.objects_of_type(ObjType.NODE)[0].path
    with pytest.raises(PowerApiError) as err:
        ctx.write(node_path, AttrName.POWER_LIMIT_MAX, -10.0)
    assert err.value.code is ErrorCode.BAD_VALUE


def test_unimplemented_attribute_maps_to_not_implemented():
    ctx = PowerApiContext.for_cluster(small_cluster(), role=Role.ADMINISTRATOR)
    node_path = ctx.objects_of_type(ObjType.NODE)[0].path
    with pytest.raises(PowerApiError) as err:
        ctx.write(node_path, AttrName.GOV, 1.0)
    assert err.value.code is ErrorCode.NOT_IMPLEMENTED


# ---------------------------------------------------------------------------
# roles and scopes
# ---------------------------------------------------------------------------
def test_application_role_cannot_write():
    ctx = PowerApiContext.for_cluster(small_cluster(), role=Role.APPLICATION)
    node_path = ctx.objects_of_type(ObjType.NODE)[0].path
    with pytest.raises(PowerApiError) as err:
        ctx.write(node_path, AttrName.POWER_LIMIT_MAX, 300.0)
    assert err.value.code is ErrorCode.NO_PERMISSION


def test_monitor_role_reads_everything_it_needs():
    ctx = PowerApiContext.for_cluster(small_cluster(), role=Role.MONITOR)
    snapshot = ctx.snapshot()
    assert len(snapshot) >= 1 + 3  # platform + nodes at least
    for row in snapshot.values():
        assert all(isinstance(v, float) for v in row.values())


def test_runtime_role_cannot_write_platform_level():
    ctx = PowerApiContext.for_cluster(small_cluster(), role=Role.RUNTIME)
    with pytest.raises(PowerApiError) as err:
        ctx.write(ctx.root, AttrName.POWER_LIMIT_MAX, 1000.0)
    assert err.value.code is ErrorCode.NO_PERMISSION


def test_rm_role_cannot_write_socket_level():
    ctx = PowerApiContext.for_cluster(small_cluster(), role=Role.RESOURCE_MANAGER)
    socket_path = ctx.objects_of_type(ObjType.SOCKET)[0].path
    with pytest.raises(PowerApiError) as err:
        ctx.write(socket_path, AttrName.POWER_LIMIT_MAX, 100.0)
    assert err.value.code is ErrorCode.NO_PERMISSION


def test_scope_restricts_writes_to_job_nodes():
    cluster = small_cluster(n_nodes=4)
    job_nodes = [cluster.nodes[0].hostname, cluster.nodes[1].hostname]
    ctx = PowerApiContext.for_cluster(
        cluster, role=Role.RUNTIME, scope_hostnames=job_nodes
    )
    in_scope = f"{cluster.spec.name}/{job_nodes[0]}"
    out_of_scope = f"{cluster.spec.name}/{cluster.nodes[3].hostname}"
    assert ctx.write(in_scope, AttrName.POWER_LIMIT_MAX, 350.0) > 0
    with pytest.raises(PowerApiError) as err:
        ctx.write(out_of_scope, AttrName.POWER_LIMIT_MAX, 350.0)
    assert err.value.code is ErrorCode.OUT_OF_SCOPE


def test_scoped_group_only_contains_job_nodes():
    cluster = small_cluster(n_nodes=4)
    job_nodes = [cluster.nodes[0].hostname]
    ctx = PowerApiContext.for_cluster(cluster, role=Role.RUNTIME, scope_hostnames=job_nodes)
    group = ctx.group("job-nodes", ObjType.NODE)
    assert len(group) == 1
    assert group.members[0].name == job_nodes[0]


def test_with_role_preserves_tree_and_scope():
    cluster = small_cluster(n_nodes=2)
    ctx = PowerApiContext.for_cluster(
        cluster, role=Role.RUNTIME, scope_hostnames=[cluster.nodes[0].hostname]
    )
    monitor = ctx.with_role(Role.MONITOR)
    assert monitor.root is ctx.root
    assert monitor.role is Role.MONITOR
    with pytest.raises(PowerApiError):
        monitor.write(
            f"{cluster.spec.name}/{cluster.nodes[0].hostname}",
            AttrName.POWER_LIMIT_MAX,
            300.0,
        )


def test_for_nodes_builds_allocation_view():
    cluster = small_cluster(n_nodes=4)
    ctx = PowerApiContext.for_nodes(cluster.nodes[:2], role=Role.RUNTIME)
    assert len(ctx.objects_of_type(ObjType.NODE)) == 2
    assert ctx.root.name == "allocation"


def test_unknown_role_permissions_rejected_at_construction():
    cluster = small_cluster()
    perms = default_permissions()
    del perms[Role.MONITOR]
    with pytest.raises(ValueError):
        PowerApiContext.for_cluster(cluster, role=Role.MONITOR, permissions=perms)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------
def test_group_uniform_cap_write():
    cluster = small_cluster(n_nodes=3)
    ctx = PowerApiContext.for_cluster(cluster, role=Role.RESOURCE_MANAGER)
    group = ctx.group("all-nodes", ObjType.NODE)
    applied = group.write(AttrName.POWER_LIMIT_MAX, 330.0)
    assert len(applied) == 3
    for node in cluster.nodes:
        assert node.node_power_cap_w == pytest.approx(330.0)


def test_group_statistics_and_total():
    ctx = PowerApiContext.for_cluster(small_cluster(n_nodes=3))
    group = ctx.group("all-nodes", ObjType.NODE)
    stats = group.statistics(AttrName.TDP)
    assert stats["count"] == 3.0
    assert stats["total"] == pytest.approx(group.total(AttrName.TDP))
    assert stats["min"] <= stats["mean"] <= stats["max"]


def test_group_deduplicates_members():
    ctx = PowerApiContext.for_cluster(small_cluster())
    node_obj = ctx.objects_of_type(ObjType.NODE)[0]
    group = PowerGroup("dup").add(node_obj).add(node_obj)
    assert len(group) == 1


def test_empty_group_statistics_are_zero():
    group = PowerGroup("empty")
    stats = group.statistics(AttrName.POWER)
    assert stats["count"] == 0.0
    assert stats["total"] == 0.0


# ---------------------------------------------------------------------------
# BMC / IPMI / Redfish
# ---------------------------------------------------------------------------
def test_bmc_board_power_is_quantised_to_one_watt():
    node = Node(NodeSpec(), hostname="n0")
    bmc = BmcEndpoint(node)
    reading = bmc.read_sensor("board_power")
    assert reading.value == pytest.approx(round(node.idle_power_w()))
    assert reading.units == "W"


def test_bmc_unknown_sensor_rejected():
    bmc = BmcEndpoint(Node(NodeSpec(), hostname="n0"))
    with pytest.raises(KeyError):
        bmc.read_sensor("flux_capacitor")


def test_bmc_sampling_respects_cadence():
    bmc = BmcEndpoint(Node(NodeSpec(), hostname="n0"), sample_interval_s=5.0)
    first = bmc.sample(time_s=0.0)
    too_soon = bmc.sample(time_s=2.0)
    later = bmc.sample(time_s=5.0)
    assert len(first) == len(bmc.sensors)
    assert too_soon == []
    assert len(later) == len(bmc.sensors)


def test_bmc_exhaust_temperature_rises_with_power():
    node = Node(NodeSpec(), hostname="n0")
    bmc = BmcEndpoint(node)
    cold = bmc.read_sensor("exhaust_temp").value
    node.allocated_to = "job"
    node.current_power_w = node.max_power_w()
    hot = bmc.read_sensor("exhaust_temp").value
    assert hot > cold


def test_bmc_power_limit_applies_inband_cap():
    node = Node(NodeSpec(), hostname="n0")
    bmc = BmcEndpoint(node)
    applied = bmc.set_power_limit(300.0)
    assert node.node_power_cap_w == pytest.approx(applied)
    bmc.set_power_limit(None)
    assert node.node_power_cap_w is None


def test_bmc_power_limit_rejects_nonpositive():
    bmc = BmcEndpoint(Node(NodeSpec(), hostname="n0"))
    with pytest.raises(ValueError):
        bmc.set_power_limit(0.0)


def test_redfish_service_root_and_collection():
    svc = RedfishService(small_cluster(n_nodes=2))
    root = svc.get("/redfish/v1")
    chassis = svc.get("/redfish/v1/Chassis")
    assert root["Chassis"]["@odata.id"] == "/redfish/v1/Chassis"
    assert chassis["Members@odata.count"] == 2
    assert len(chassis["Members"]) == 2


def test_redfish_power_resource_shape():
    cluster = small_cluster(n_nodes=1)
    svc = RedfishService(cluster)
    resource = svc.get(f"/redfish/v1/Chassis/{cluster.nodes[0].hostname}/Power")
    control = resource["PowerControl"][0]
    assert control["PowerCapacityWatts"] == pytest.approx(cluster.nodes[0].max_power_w())
    assert control["PowerLimit"]["LimitInWatts"] is None
    assert "AverageConsumedWatts" in control["PowerMetrics"]


def test_redfish_thermal_resource_health():
    cluster = small_cluster(n_nodes=1)
    svc = RedfishService(cluster)
    thermal = svc.get(f"/redfish/v1/Chassis/{cluster.nodes[0].hostname}/Thermal")
    names = {row["Name"] for row in thermal["Temperatures"]}
    assert names == {"inlet_temp", "exhaust_temp", "cpu_temp"}
    assert all(row["Status"]["Health"] == "OK" for row in thermal["Temperatures"])


def test_redfish_patch_power_limit_round_trip():
    cluster = small_cluster(n_nodes=2)
    svc = RedfishService(cluster)
    hostname = cluster.nodes[0].hostname
    svc.bmc(hostname).set_power_limit(340.0)
    updated = svc.bmc(hostname).power_resource()
    assert updated["PowerControl"][0]["PowerLimit"]["LimitInWatts"] == pytest.approx(
        cluster.nodes[0].node_power_cap_w
    )


def test_redfish_unknown_paths_raise():
    svc = RedfishService(small_cluster(n_nodes=1))
    for path in ("/redfish/v2", "/redfish/v1/Systems", "/redfish/v1/Chassis/nope/Power"):
        with pytest.raises(KeyError):
            svc.get(path)


def test_redfish_system_power_cap_split_evenly():
    cluster = small_cluster(n_nodes=4)
    svc = RedfishService(cluster)
    applied = svc.apply_system_power_cap(1600.0)
    assert len(applied) == 4
    for node in cluster.nodes:
        assert node.node_power_cap_w == pytest.approx(max(400.0, node.spec.min_power_w))


def test_redfish_outlier_detection_flags_hot_node():
    cluster = small_cluster(n_nodes=6)
    svc = RedfishService(cluster)
    assert svc.outlier_chassis() == []
    hot = cluster.nodes[2]
    hot.allocated_to = "job"
    hot.current_power_w = hot.max_power_w() * 2
    assert svc.outlier_chassis(threshold_sigma=1.5) == [hot.hostname]


def test_redfish_outlier_threshold_validation():
    svc = RedfishService(small_cluster(n_nodes=2))
    with pytest.raises(ValueError):
        svc.outlier_chassis(threshold_sigma=0.0)


def test_sensor_threshold_breach_reported_unhealthy():
    node = Node(NodeSpec(), hostname="n0")
    bmc = BmcEndpoint(node)
    # Tighten the inlet threshold below ambient: the read must come back
    # flagged, not raise and not be silently clamped.
    bmc.sensors["inlet_temp"] = SensorSpec(
        "inlet_temp", "degC", resolution=0.5, upper_critical=bmc.ambient_c - 5.0
    )
    reading = bmc.read_sensor("inlet_temp")
    assert not reading.healthy
    assert reading.error is None and not reading.stale
    assert reading.value == pytest.approx(bmc.ambient_c)


def test_sensor_lower_threshold_breach_reported_unhealthy():
    node = Node(NodeSpec(), hostname="n0")
    bmc = BmcEndpoint(node)
    bmc.sensors["inlet_temp"] = SensorSpec(
        "inlet_temp", "degC", resolution=0.5, lower_critical=bmc.ambient_c + 5.0
    )
    assert not bmc.read_sensor("inlet_temp").healthy


def test_redfish_patch_power_limit_rejects_unknown_chassis():
    svc = RedfishService(small_cluster(n_nodes=2))
    with pytest.raises(KeyError, match="unknown chassis"):
        svc.bmc("ghost-node")


def test_redfish_outlier_zero_variance_returns_empty():
    """Identical readings (std == 0) must not divide by zero or flag anyone."""
    cluster = small_cluster(n_nodes=4)
    svc = RedfishService(cluster)
    for node in cluster.nodes:
        node.allocated_to = "job"
        node.current_power_w = 400.0
    assert svc.outlier_chassis(threshold_sigma=1.0) == []


def test_redfish_outlier_single_chassis_returns_empty():
    svc = RedfishService(small_cluster(n_nodes=1))
    assert svc.outlier_chassis() == []


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(cap=st.floats(min_value=1.0, max_value=2000.0))
def test_property_node_cap_write_round_trips_within_bounds(cap):
    node = Node(NodeSpec(), hostname="prop-node")
    provider = NodeProvider(node)
    applied = provider.write(AttrName.POWER_LIMIT_MAX, cap)
    # The node clamps requests up to its minimum enforceable power; requests
    # above TDP are accepted verbatim (they are simply never binding).
    assert applied >= node.spec.min_power_w - 1e-6
    assert applied <= max(cap, node.max_power_w()) + 1e-6
    assert provider.read(AttrName.POWER_LIMIT_MAX) == pytest.approx(applied)


@settings(max_examples=25, deadline=None)
@given(freq=st.floats(min_value=0.1, max_value=6.0))
def test_property_socket_frequency_write_is_clamped_pstate(freq):
    node = Node(NodeSpec(), hostname="prop-node")
    provider = SocketProvider(node.packages[0])
    granted = provider.write(AttrName.FREQ_REQUEST, freq)
    spec = node.packages[0].spec
    assert spec.freq_min_ghz - 1e-9 <= granted <= node.packages[0].max_frequency_ghz + 1e-9
    assert granted <= max(freq, spec.freq_min_ghz) + 1e-9


@settings(max_examples=20, deadline=None)
@given(watts=st.floats(min_value=10.0, max_value=5000.0))
def test_property_bmc_quantisation_error_bounded(watts):
    node = Node(NodeSpec(), hostname="prop-node")
    node.allocated_to = "job"
    node.current_power_w = float(watts)
    bmc = BmcEndpoint(node)
    reading = bmc.read_sensor("board_power")
    assert abs(reading.value - watts) <= 0.5 + 1e-9
    assert reading.value == pytest.approx(np.round(watts))
