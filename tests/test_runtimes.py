"""Tests for the job-level runtime systems (GEOPM, Conductor, COUNTDOWN, MERIC,
READEX, EPOP, coordination)."""

import pytest

from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.mpi import MpiJobSimulator
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.runtime import (
    RUNTIME_REGISTRY,
    ConductorRuntime,
    CountdownMode,
    CountdownRuntime,
    EpopRuntime,
    GeopmEndpoint,
    GeopmPolicy,
    GeopmRuntime,
    JobRuntime,
    MericRuntime,
    RegionConfig,
    RegionConfigStore,
    RuntimeCoordinator,
)
from repro.runtime.agents import AGENT_REGISTRY, EnergyEfficientAgent
from repro.runtime.readex import AtpConstraint, AtpParameter, ReadexTuner, TuningModel
from repro.sim.rng import RandomStreams


@pytest.fixture()
def cluster():
    return Cluster(ClusterSpec(n_nodes=4), seed=11)


def mixed_app(iterations=6):
    return SyntheticApplication(
        "mixed",
        [make_phase("compute", 0.6, kind="compute", ref_threads=56),
         make_phase("sweep", 0.4, kind="memory", ref_threads=56),
         make_phase("halo", 0.2, kind="mpi", comm_fraction=0.7, ref_threads=56)],
        n_iterations=iterations,
    )


def run_job(cluster, hooks, iterations=6, seed=3, imbalance=0.2, n_nodes=4):
    nodes = cluster.nodes[:n_nodes]
    for node in nodes:
        node.allocated_to = None
        node.set_power_cap(None)
        node.set_frequency(node.spec.cpu.freq_base_ghz)
        node.set_uncore_frequency(node.spec.cpu.uncore_max_ghz)
    return MpiJobSimulator.evaluate(
        nodes, mixed_app(iterations), hooks=hooks, streams=RandomStreams(seed),
        static_imbalance=imbalance, job_id="rt-test",
    )


# -- base / registry -----------------------------------------------------------------


def test_runtime_registry_contains_all_tools():
    assert {"geopm", "conductor", "countdown", "meric", "epop", "coordinator"} <= set(
        RUNTIME_REGISTRY
    )


def test_base_runtime_budget_distribution(cluster):
    runtime = JobRuntime(power_budget_w=1200.0)
    runtime.nodes = cluster.nodes[:4]
    runtime.distribute_budget()
    assert all(n.node_power_cap_w == pytest.approx(300.0) for n in cluster.nodes[:4])
    runtime.set_power_budget(800.0)
    assert all(
        n.node_power_cap_w == pytest.approx(max(200.0, n.spec.min_power_w))
        for n in cluster.nodes[:4]
    )


def test_base_runtime_report_and_power_requests():
    runtime = JobRuntime(power_budget_w=500.0)
    runtime.return_power(50.0)
    runtime.request_power(100.0)
    report = runtime.report()
    assert report["returned_power_w"] == 50.0
    assert report["requested_power_w"] == 100.0
    with pytest.raises(ValueError):
        runtime.return_power(-1.0)


def test_job_end_resets_node_state(cluster):
    runtime = GeopmRuntime(GeopmPolicy(agent="power_governor", power_budget_w=1000.0))
    run_job(cluster, runtime)
    for node in cluster.nodes[:4]:
        assert node.node_power_cap_w is None
        assert node.packages[0].frequency_ghz == pytest.approx(node.spec.cpu.freq_base_ghz)


# -- GEOPM -----------------------------------------------------------------------------


def test_geopm_policy_validation():
    with pytest.raises(ValueError):
        GeopmPolicy(agent="not_an_agent")
    with pytest.raises(ValueError):
        GeopmPolicy(power_budget_w=-5.0)
    assert GeopmPolicy().with_budget(800.0).power_budget_w == 800.0


def test_agent_registry_has_five_standard_agents():
    assert {"monitor", "power_governor", "power_balancer", "frequency_map",
            "energy_efficient"} <= set(AGENT_REGISTRY)


def test_geopm_power_governor_caps_nodes(cluster):
    runtime = GeopmRuntime(GeopmPolicy(agent="power_governor", power_budget_w=1120.0))
    result = run_job(cluster, runtime)
    assert result.average_power_w < 1120.0 * 1.1
    assert runtime.report()["epochs"] == 6.0


def test_geopm_power_balancer_spreads_caps(cluster):
    runtime = GeopmRuntime(GeopmPolicy(agent="power_balancer", power_budget_w=1120.0))
    run_job(cluster, runtime, imbalance=0.3)
    report = runtime.report()
    assert report["agent_adjustments"] >= 1.0
    assert report["agent_cap_spread_w"] > 0.0


def test_geopm_energy_efficient_lowers_frequency(cluster):
    runtime = GeopmRuntime(GeopmPolicy(agent="energy_efficient", perf_degradation=0.2))
    run_job(cluster, runtime, iterations=8)
    agent = runtime.agent
    assert isinstance(agent, EnergyEfficientAgent)
    assert agent.report()["final_frequency_ghz"] < cluster.nodes[0].spec.cpu.freq_max_ghz


def test_geopm_endpoint_policy_and_sample_flow(cluster):
    endpoint = GeopmEndpoint(job_id="j")
    endpoint.write_policy(GeopmPolicy(agent="power_governor", power_budget_w=1200.0))
    runtime = GeopmRuntime(GeopmPolicy(agent="monitor"), endpoint=endpoint)
    run_job(cluster, runtime)
    # The runtime adopted the endpoint policy and published samples.
    assert runtime.policy.agent == "power_governor"
    sample = endpoint._sample
    assert sample["epoch"] == 6.0
    assert sample["job_energy_j"] > 0


def test_geopm_frequency_map_agent_pins_regions(cluster):
    from repro.runtime.agents import FrequencyMapAgent

    agent = FrequencyMapAgent({"sweep": 1.2})
    runtime = GeopmRuntime(GeopmPolicy(agent="frequency_map"), agent=agent)
    run_job(cluster, runtime)
    assert agent.report()["region_hits"] > 0


# -- Conductor ----------------------------------------------------------------------------


def test_conductor_explores_then_selects_threads(cluster):
    runtime = ConductorRuntime(power_budget_w=1120.0, exploration_steps=2,
                               thread_candidates=(28, 56))
    run_job(cluster, runtime, iterations=8)
    assert runtime.selected_threads in (28, 56)
    assert runtime.rebalances >= 1


def test_conductor_caps_respect_budget(cluster):
    budget = 1000.0
    runtime = ConductorRuntime(power_budget_w=budget, exploration_steps=0,
                               thread_candidates=(56,))
    run_job(cluster, runtime, iterations=6, imbalance=0.3)
    total_caps = sum(runtime._caps.values())
    assert total_caps <= budget * 1.15  # clamping to node minimums allows slight excess


def test_conductor_validation():
    with pytest.raises(ValueError):
        ConductorRuntime(rebalance_interval=0)
    with pytest.raises(ValueError):
        ConductorRuntime(step_fraction=2.0)
    with pytest.raises(ValueError):
        ConductorRuntime(thread_candidates=())


# -- COUNTDOWN ----------------------------------------------------------------------------


def test_countdown_saves_energy_on_waits(cluster):
    baseline = run_job(cluster, CountdownRuntime(CountdownMode.PROFILE_ONLY), imbalance=0.3)
    saving = run_job(cluster, CountdownRuntime(CountdownMode.WAIT_AND_COPY), imbalance=0.3)
    assert saving.energy_j < baseline.energy_j
    assert saving.runtime_s <= baseline.runtime_s * 1.1


def test_countdown_profiles_mpi_fraction(cluster):
    runtime = CountdownRuntime(CountdownMode.PROFILE_ONLY)
    run_job(cluster, runtime)
    report = runtime.report()
    assert 0.0 < report["mpi_fraction"] < 1.0
    assert report["downclocked_regions"] == 0.0


def test_countdown_wait_and_copy_downclocks_regions(cluster):
    runtime = CountdownRuntime(CountdownMode.WAIT_AND_COPY)
    run_job(cluster, runtime)
    assert runtime.downclocked_regions > 0


def test_countdown_wait_threshold_filters_short_waits(cluster):
    runtime = CountdownRuntime(CountdownMode.WAIT_ONLY, wait_threshold_s=1e9)
    node = cluster.nodes[0]
    phase = make_phase("halo", 0.2, kind="mpi", comm_fraction=0.7)
    assert runtime.wait_power_w(None, node, phase, wait_s=0.5) is None


# -- MERIC / READEX --------------------------------------------------------------------------


def test_region_config_store_best_config():
    store = RegionConfigStore()
    fast = RegionConfig(core_freq_ghz=2.4)
    slow = RegionConfig(core_freq_ghz=1.2)
    store.record("sweep", fast, runtime_s=1.0, energy_j=400.0)
    store.record("sweep", slow, runtime_s=1.2, energy_j=300.0)
    assert store.best_config("sweep", objective="energy_j") == slow
    assert store.best_config("sweep", objective="runtime_s") == fast
    assert store.best_config("missing") is None
    assert "sweep" in store.tuning_table()


def test_meric_applies_region_configs_and_restores(cluster):
    runtime = MericRuntime({"sweep": RegionConfig(core_freq_ghz=1.2)})
    result = run_job(cluster, runtime)
    assert runtime.applied_regions > 0
    assert result.energy_j > 0
    # Frequencies restored after each region: nodes end at base frequency.
    assert cluster.nodes[0].packages[0].frequency_ghz == pytest.approx(
        cluster.nodes[0].spec.cpu.freq_base_ghz
    )


def test_meric_measurement_mode_populates_store(cluster):
    runtime = MericRuntime(measure_config=RegionConfig(core_freq_ghz=1.8))
    run_job(cluster, runtime, iterations=3)
    assert set(runtime.store.regions()) == {"compute", "sweep", "halo"}


def test_readex_atp_constraints_filter_combinations():
    tuner = ReadexTuner(
        application=mixed_app(2),
        nodes=Cluster(ClusterSpec(n_nodes=1), seed=0).nodes[:1],
        atp_parameters=(AtpParameter("a", (1, 2)), AtpParameter("b", ("x", "y"))),
        atp_constraints=(
            AtpConstraint("a=2 incompatible with b=y",
                          lambda cfg: not (cfg["a"] == 2 and cfg["b"] == "y")),
        ),
    )
    combos = tuner.atp_configurations()
    assert {"a": 2, "b": "y"} not in combos
    assert len(combos) == 3


def test_readex_design_time_builds_model_and_json_roundtrip():
    cluster = Cluster(ClusterSpec(n_nodes=1), seed=1)
    tuner = ReadexTuner(
        application=mixed_app(2),
        nodes=cluster.nodes[:1],
        core_freqs_ghz=(1.6, 2.4),
        uncore_freqs_ghz=(2.4,),
        max_iterations_per_experiment=2,
        objective="energy_j",
    )
    model = tuner.run_design_time_analysis()
    assert tuner.experiments_run == 2
    assert set(model.region_configs) == {"compute", "sweep", "halo"}
    restored = TuningModel.from_json(model.to_json())
    assert restored.region_configs.keys() == model.region_configs.keys()
    assert isinstance(model.runtime(), MericRuntime)


# -- EPOP --------------------------------------------------------------------------------------


def test_epop_measures_power_and_resizes(cluster):
    runtime = EpopRuntime(elastic=True)

    calls = []
    runtime.on_phase_report = calls.append

    class Grower(EpopRuntime):
        pass

    # Request a resize from "outside" after the first iteration completes.
    original_on_iteration_end = runtime.on_iteration_end

    def on_iteration_end(sim, iteration):
        if iteration == 1:
            assert runtime.can_resize_to(4)
            assert runtime.request_resize(cluster.nodes[:4])
        original_on_iteration_end(sim, iteration)

    runtime.on_iteration_end = on_iteration_end
    result = run_job(cluster, runtime, iterations=5, n_nodes=2)
    assert runtime.resizes == 1
    assert len(result.hostnames) == 4
    assert runtime.measured_power_w > 0
    assert runtime.predicted_power_w(8) > runtime.predicted_power_w(4) > 0
    assert len(calls) == 5


def test_epop_rejects_resize_when_not_elastic(cluster):
    runtime = EpopRuntime(elastic=False)
    assert not runtime.request_resize(cluster.nodes[:2])
    assert runtime.blocked_resizes == 1


# -- coordination ---------------------------------------------------------------------------------


def test_coordinator_routes_regions_to_owners(cluster):
    countdown = CountdownRuntime(CountdownMode.WAIT_AND_COPY)
    meric = MericRuntime({"sweep": RegionConfig(core_freq_ghz=1.4)})
    coordinator = RuntimeCoordinator([countdown, meric])
    run_job(cluster, coordinator)
    assert coordinator.mpi_owner == "countdown"
    assert coordinator.conflicts_prevented > 0
    assert meric.applied_regions > 0          # owns the memory-bound region
    assert countdown.downclocked_regions > 0  # owns the MPI region
    report = coordinator.report()
    assert "countdown.mpi_fraction" in report
    assert "meric.applied_regions" in report


def test_coordinator_requires_runtimes():
    with pytest.raises(ValueError):
        RuntimeCoordinator([])
