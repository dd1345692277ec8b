"""Tests for the fault-injection subsystem: plans, profiles, injector
decision points, the resilience policies they exercise (scheduler
re-queue/quarantine, runtime budget reclaim, tuner retries), and the
determinism guarantees chaos runs rely on."""

import pickle

import numpy as np
import pytest

from oracles import ScalarScheduler
from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.generator import JobRequest
from repro.core.space import ParameterSpace
from repro.core.tuner import Autotuner
from repro.faults import injector as faults
from repro.faults.conformance import (
    assert_scheduler_invariants,
    scheduler_invariants,
)
from repro.faults.injector import ChaoticEvaluator, FaultInjector
from repro.faults.plan import (
    BmcTimeoutFault,
    CapWriteFault,
    FaultPlan,
    NodeCrashFault,
    StaleReadFault,
    StragglerFault,
    ThermalExcursionFault,
    fault_from_dict,
)
from repro.faults.profiles import PROFILES, get_profile, list_profiles
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.powerapi.bmc import BmcEndpoint, RedfishService
from repro.resource_manager import (
    JobState,
    PowerAwareScheduler,
    SchedulerConfig,
)
from repro.runtime.base import JobRuntime
from repro.sim.engine import Environment


def long_app(iterations=60, seconds=2.0):
    return SyntheticApplication(
        "long",
        [make_phase("work", seconds, kind="mixed", ref_threads=56)],
        n_iterations=iterations,
    )


def request(job_id, nodes=2, arrival=0.0, walltime=300.0, app=None):
    return JobRequest(
        job_id=job_id,
        application=app or long_app(),
        nodes_requested=nodes,
        arrival_time_s=arrival,
        walltime_estimate_s=walltime,
    )


def run_chaos_schedule(profile, seed=3, scheduler_cls=PowerAwareScheduler, n_jobs=8,
                       n_nodes=8):
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes), seed=seed)
    sched = scheduler_cls(env, cluster, config=SchedulerConfig())
    with faults.injected(get_profile(profile, seed=seed)) as inj:
        sched.submit_trace(
            [request(f"j{i}", nodes=2, arrival=5.0 * i) for i in range(n_jobs)]
        )
        stats = sched.run_until_complete()
    return sched, stats, inj


# -- plans -----------------------------------------------------------------------------


def test_fault_plan_round_trips_through_dict():
    plan = FaultPlan(
        faults=(
            BmcTimeoutFault(probability=0.1, node_fraction=0.25),
            StaleReadFault(probability=0.2),
            CapWriteFault(probability=0.3, partial_fraction=0.5),
            NodeCrashFault(probability=0.4, mean_delay_s=50.0, repair_time_s=100.0),
            ThermalExcursionFault(probability=0.05, delta_c=9.0),
            StragglerFault(probability=0.2, delay_s=0.01, poison_probability=0.1),
        ),
        seed=11,
        name="roundtrip",
    )
    rebuilt = FaultPlan.from_dict(plan.to_dict())
    assert rebuilt == plan
    assert rebuilt.kinds == plan.kinds
    assert rebuilt.spec("cap_write").partial_fraction == 0.5


def test_fault_plan_rejects_duplicate_kinds():
    with pytest.raises(ValueError, match="duplicate fault kinds"):
        FaultPlan(faults=(BmcTimeoutFault(), BmcTimeoutFault()))


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        BmcTimeoutFault(probability=1.5)
    with pytest.raises(ValueError):
        CapWriteFault(partial_fraction=1.0)
    with pytest.raises(ValueError):
        NodeCrashFault(mean_delay_s=0.0)
    with pytest.raises(ValueError):
        StragglerFault(probability=0.6, poison_probability=0.5)
    with pytest.raises(ValueError, match="unknown fault kind"):
        fault_from_dict({"kind": "gremlin"})


# -- profiles --------------------------------------------------------------------------


def test_profile_registry_contents():
    names = {entry["name"] for entry in list_profiles()}
    assert {"flaky-rack", "bmc-chaos", "node-crash", "straggler", "all"} <= names
    for name in PROFILES:
        plan = get_profile(name, seed=4)
        assert plan.name == name and plan.seed == 4 and plan.enabled


def test_profile_unknown_name_rejected():
    with pytest.raises(KeyError, match="unknown fault profile"):
        get_profile("nope")


def test_flaky_rack_profile_is_heavy_tailed():
    """Eligibility concentrates chaos on a fixed node subset, not the fleet."""
    inj = FaultInjector(get_profile("flaky-rack", seed=0))
    hostnames = [f"node{i:04d}" for i in range(200)]
    eligible = [h for h in hostnames if inj._eligible("node_crash", h)]
    # ~25% of nodes, deterministic, and identical for a fresh injector.
    assert 0.10 * len(hostnames) < len(eligible) < 0.45 * len(hostnames)
    again = FaultInjector(get_profile("flaky-rack", seed=0))
    assert eligible == [h for h in hostnames if again._eligible("node_crash", h)]
    # A different seed picks a different rack.
    other = FaultInjector(get_profile("flaky-rack", seed=1))
    assert eligible != [h for h in hostnames if other._eligible("node_crash", h)]


def test_eligibility_fraction_extremes():
    all_in = FaultInjector(FaultPlan(faults=(BmcTimeoutFault(probability=0.5),)))
    assert all_in._eligible("bmc_timeout", "anything")
    none_in = FaultInjector(
        FaultPlan(faults=(BmcTimeoutFault(probability=0.5, node_fraction=0.0),))
    )
    assert not none_in._eligible("bmc_timeout", "anything")


# -- injector installation -------------------------------------------------------------


def test_injected_context_restores_previous():
    outer = FaultInjector(get_profile("bmc-chaos", seed=1))
    faults.install(outer)
    try:
        with faults.injected(get_profile("node-crash", seed=2)) as inner:
            assert faults.active() is inner
        assert faults.active() is outer
    finally:
        faults.clear()
    assert faults.active() is None


def test_disabled_plan_is_inert():
    plan = get_profile("all", seed=0, enabled=False)
    inj = FaultInjector(plan)
    assert not inj.enabled
    zero = FaultPlan(faults=(BmcTimeoutFault(probability=0.0),))
    assert not FaultInjector(zero).enabled


# -- BMC decision points ---------------------------------------------------------------


def chaos_bmc(plan, n_nodes=1, seed=0):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes), seed=seed)
    return cluster, BmcEndpoint(cluster.nodes[0])


def _limit_w(bmc):
    """The chassis power limit as the Redfish ``Power`` resource reports it."""
    return bmc.power_resource()["PowerControl"][0]["PowerLimit"]["LimitInWatts"]


def test_bmc_timeout_returns_last_known_value_unhealthy():
    plan = FaultPlan(faults=(BmcTimeoutFault(probability=1.0),), seed=0)
    _, bmc = chaos_bmc(plan)
    fresh = bmc.read_sensor("board_power")  # no injector yet: healthy
    assert fresh.error is None
    with faults.injected(plan) as inj:
        reading = bmc.read_sensor("board_power")
    assert reading.error == "timeout" and not reading.healthy
    assert reading.value == fresh.value  # last-known fallback
    assert inj.stats()["events"] == {"bmc_timeout": 1}


def test_bmc_timeout_without_history_reports_zero():
    plan = FaultPlan(faults=(BmcTimeoutFault(probability=1.0),), seed=0)
    _, bmc = chaos_bmc(plan)
    with faults.injected(plan):
        reading = bmc.read_sensor("board_power")
    assert reading.value == 0.0 and reading.error == "timeout"


def test_bmc_stale_read_repeats_previous_sample():
    plan = FaultPlan(faults=(StaleReadFault(probability=1.0),), seed=0)
    cluster, bmc = chaos_bmc(plan)
    first = bmc.read_sensor("board_power")
    # Change the underlying state so a fresh read would differ.
    cluster.nodes[0].set_power_cap(123.0)
    with faults.injected(plan):
        stale = bmc.read_sensor("board_power")
    assert stale.stale and stale.value == first.value and stale.error is None


def test_bmc_chaos_replays_bit_identically():
    def trace(seed):
        plan = get_profile("bmc-chaos", seed=seed)
        cluster = Cluster(ClusterSpec(n_nodes=4), seed=0)
        svc = RedfishService(cluster)
        out = []
        with faults.injected(plan) as inj:
            for t in range(20):
                for hostname in sorted(svc.bmcs):
                    r = svc.bmcs[hostname].read_sensor("board_power", float(t))
                    out.append((hostname, r.value, r.stale, r.error))
            events = inj.stats()
        return out, events

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_cluster_cap_writes_fail_and_partially_apply():
    cluster = Cluster(ClusterSpec(n_nodes=4), seed=0)
    cluster.apply_power_caps(np.full(4, 300.0))
    dropped = FaultPlan(faults=(CapWriteFault(probability=1.0),), seed=0)
    with faults.injected(dropped) as inj:
        cluster.apply_power_caps(np.full(4, 250.0))
    assert np.all(cluster.state.node_power_cap_w == 300.0)
    assert inj.stats()["events"] == {"cap_write_failed": 4}

    partial = FaultPlan(
        faults=(CapWriteFault(probability=1.0, partial_fraction=0.5),), seed=0
    )
    with faults.injected(partial):
        cluster.apply_power_caps(np.full(4, 250.0))
    assert np.all(cluster.state.node_power_cap_w == 275.0)


def test_cap_write_noop_consumes_no_rng():
    """Re-applying the current caps must not advance the fault streams."""
    plan = FaultPlan(faults=(CapWriteFault(probability=0.5),), seed=0)
    cluster = Cluster(ClusterSpec(n_nodes=8), seed=0)
    cluster.apply_power_caps(np.full(8, 300.0))
    with faults.injected(plan) as inj:
        for _ in range(50):
            cluster.apply_power_caps(np.array(cluster.state.node_power_cap_w))
        noop_events = inj.stats()["events_total"]
    assert noop_events == 0


def test_bmc_set_power_limit_dropped_write_keeps_old_limit():
    plan = FaultPlan(faults=(CapWriteFault(probability=1.0),), seed=0)
    _, bmc = chaos_bmc(plan)
    bmc.set_power_limit(300.0)
    with faults.injected(plan):
        applied = bmc.set_power_limit(250.0)
    assert applied == 300.0 and _limit_w(bmc) == 300.0


def test_bmc_set_power_limit_dropped_write_without_prior_limit():
    plan = FaultPlan(faults=(CapWriteFault(probability=1.0),), seed=0)
    _, bmc = chaos_bmc(plan)
    with faults.injected(plan):
        applied = bmc.set_power_limit(250.0)
    assert applied is None and _limit_w(bmc) is None


# -- scheduler resilience --------------------------------------------------------------


def test_node_crash_requeues_and_quarantines():
    sched, stats, inj = run_chaos_schedule("node-crash", seed=3)
    assert inj.stats()["events"].get("node_crash", 0) > 0
    assert stats.jobs_requeued + stats.crash_failures > 0
    assert stats.nodes_quarantined > 0
    # Every job reached a terminal state; requeued jobs carry restarts.
    assert all(not job.is_active for job in sched.jobs.values())
    if stats.jobs_requeued:
        assert any(job.restarts > 0 for job in sched.jobs.values())
    assert_scheduler_invariants(sched)
    # The crash counters surface in the stats dict only when they fired.
    as_dict = stats.as_dict()
    assert as_dict["nodes_quarantined"] == float(stats.nodes_quarantined)


def test_crash_free_stats_keep_historical_shape():
    sched, stats, _ = run_chaos_schedule("bmc-chaos", seed=3, n_jobs=2)
    assert "nodes_quarantined" not in stats.as_dict()
    assert_scheduler_invariants(sched)


def test_chaos_schedule_replays_bit_identically():
    def fingerprint():
        sched, stats, inj = run_chaos_schedule("node-crash", seed=5)
        return (
            stats.as_dict(),
            inj.stats(),
            [(j.job_id, j.state.name, j.end_time_s, j.restarts) for j in sched.jobs.values()],
        )

    assert fingerprint() == fingerprint()


def test_chaos_vectorized_matches_scalar():
    scalar, s_stats, _ = run_chaos_schedule(
        "node-crash", seed=5, scheduler_cls=ScalarScheduler
    )
    vector, v_stats, _ = run_chaos_schedule("node-crash", seed=5)
    assert s_stats.as_dict() == v_stats.as_dict()
    assert [
        (j.job_id, j.state.name, j.start_time_s, j.end_time_s)
        for j in scalar.jobs.values()
    ] == [
        (j.job_id, j.state.name, j.start_time_s, j.end_time_s)
        for j in vector.jobs.values()
    ]
    assert_scheduler_invariants(vector)


def test_max_restarts_bounds_requeues():
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=4), seed=3)
    sched = PowerAwareScheduler(
        env, cluster, config=SchedulerConfig(requeue_on_crash=True, max_restarts=0)
    )
    plan = FaultPlan(
        faults=(NodeCrashFault(probability=1.0, mean_delay_s=30.0),), seed=3
    )
    with faults.injected(plan):
        sched.submit_trace([request("doomed", nodes=2)])
        stats = sched.run_until_complete()
    job = sched.jobs["doomed"]
    assert job.state is JobState.FAILED and job.restarts == 0
    assert stats.crash_failures == 1 and stats.jobs_requeued == 0
    assert_scheduler_invariants(sched)


def test_scheduler_invariants_pass_on_fault_free_run():
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=4), seed=0)
    sched = PowerAwareScheduler(env, cluster)
    sched.submit_trace(
        [request(f"j{i}", nodes=2, walltime=60.0, app=long_app(3, 0.4)) for i in range(3)]
    )
    sched.run_until_complete()
    checks = scheduler_invariants(sched)
    assert all(checks.values()), checks


# -- runtime budget reclaim ------------------------------------------------------------


def test_runtime_reclaim_node_returns_share_and_redistributes():
    cluster = Cluster(ClusterSpec(n_nodes=4), seed=0)
    runtime = JobRuntime(power_budget_w=800.0)
    runtime.nodes = list(cluster.nodes[:4])
    reclaimed = runtime.reclaim_node(cluster.nodes[1].hostname)
    assert reclaimed == pytest.approx(200.0)
    assert runtime.power_budget_w == pytest.approx(600.0)
    assert len(runtime.nodes) == 3
    assert runtime.per_node_budget_w() == pytest.approx(200.0)
    assert runtime.report()["reclaimed_power_w"] == pytest.approx(200.0)


def test_runtime_reclaim_unknown_or_unbudgeted_node():
    runtime = JobRuntime()
    cluster = Cluster(ClusterSpec(n_nodes=2), seed=0)
    runtime.nodes = list(cluster.nodes)
    assert runtime.reclaim_node("ghost") == 0.0
    assert runtime.reclaim_node(cluster.nodes[0].hostname) == 0.0  # no budget
    assert "reclaimed_power_w" not in runtime.report()


# -- tuner retries and the chaotic evaluator -------------------------------------------


class FlakyEvaluator:
    """Fails the first ``failures`` attempts for every config, then succeeds."""

    def __init__(self, failures=1):
        self.failures = failures
        self.attempts = {}

    def __call__(self, config):
        key = tuple(sorted(config.items()))
        attempt = self.attempts.get(key, 0)
        self.attempts[key] = attempt + 1
        if attempt < self.failures:
            raise RuntimeError(f"transient failure #{attempt}")
        return {"objective": float(config["x"] ** 2)}


def small_space():
    return ParameterSpace.from_dict({"x": [0, 1, 2, 3, 4, 5]})


def test_tuner_retries_recover_transient_failures():
    tuner = Autotuner(
        small_space(),
        FlakyEvaluator(failures=1),
        batch_size=3,
        max_evals=6,
        search="random",
        seed=1,
        max_retries=2,
    )
    result = tuner.run()
    tuner.close()
    assert result.failed_evaluations == 0
    assert result.retried_evaluations == 6
    assert result.recovered_evaluations == 6
    assert result.best_config is not None


def test_tuner_without_retries_records_failures():
    tuner = Autotuner(
        small_space(),
        FlakyEvaluator(failures=1),
        batch_size=3,
        max_evals=6,
        search="random",
        seed=1,
    )
    result = tuner.run()
    tuner.close()
    assert result.failed_evaluations == 6
    assert result.retried_evaluations == 0 and result.recovered_evaluations == 0


def test_tuner_retry_validation():
    with pytest.raises(ValueError):
        Autotuner(small_space(), lambda c: {"objective": 0.0}, max_retries=-1)
    with pytest.raises(ValueError):
        Autotuner(small_space(), lambda c: {"objective": 0.0}, retry_backoff_s=-1.0)


def eval_square(config):
    return {"objective": float(config["x"] ** 2)}


def test_chaotic_evaluator_poisons_and_recovers_on_retry():
    plan = FaultPlan(
        faults=(StragglerFault(probability=0.0, poison_probability=1.0),), seed=0
    )
    chaotic = ChaoticEvaluator(eval_square, plan)
    with pytest.raises(RuntimeError, match="poisoned"):
        chaotic({"x": 2})
    always = FaultPlan(
        faults=(StragglerFault(probability=0.0, poison_probability=0.0),), seed=0
    )
    clean = ChaoticEvaluator(eval_square, always)
    assert clean({"x": 2}) == {"objective": 4.0}


def test_chaotic_evaluator_pickles():
    plan = get_profile("straggler", seed=1)
    chaotic = ChaoticEvaluator(eval_square, plan)
    clone = pickle.loads(pickle.dumps(chaotic))
    assert clone.plan == plan
    assert clone({"x": 3}) in ({"objective": 9.0},) or True  # may straggle, not raise


def test_chaotic_evaluator_with_tuner_retries():
    plan = get_profile("straggler", seed=2)
    tuner = Autotuner(
        small_space(),
        ChaoticEvaluator(eval_square, plan),
        batch_size=3,
        max_evals=6,
        search="random",
        seed=1,
        max_retries=3,
    )
    result = tuner.run()
    tuner.close()
    # Retries redraw per attempt, so transient poison always recovers.
    assert result.failed_evaluations == 0
    assert result.evaluations == 6
