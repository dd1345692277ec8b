"""Tests for the system layer: jobs, queue, policies, scheduler, invasive RM."""

import pytest

from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.generator import JobRequest, WorkloadGenerator
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.resource_manager import (
    CorridorStrategy,
    InvasiveResourceManager,
    Job,
    JobPowerPolicy,
    JobQueue,
    JobState,
    PowerAwareScheduler,
    SchedulerConfig,
    SitePolicies,
)
from repro.resource_manager.policies import GeopmPolicyMode, PolicyAssigner
from repro.runtime.epop import EpopRuntime
from repro.runtime.geopm import GeopmPolicy
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams


def quick_app(iterations=3, seconds=0.4):
    return SyntheticApplication(
        "quick",
        [make_phase("work", seconds, kind="mixed", ref_threads=56),
         make_phase("sync", 0.05, kind="mpi", comm_fraction=0.6, ref_threads=56)],
        n_iterations=iterations,
    )


def request(job_id, nodes=1, arrival=0.0, malleable=False, app=None, walltime=600.0):
    return JobRequest(
        job_id=job_id,
        application=app or quick_app(),
        nodes_requested=nodes,
        nodes_min=1 if malleable else None,
        nodes_max=8 if malleable else None,
        malleable=malleable,
        arrival_time_s=arrival,
        walltime_estimate_s=walltime,
    )


# -- job state machine -----------------------------------------------------------------


def test_job_lifecycle_and_accounting():
    job = Job(request=request("j1", nodes=2), submit_time_s=10.0)
    assert job.state is JobState.PENDING and job.is_active
    cluster = Cluster(ClusterSpec(n_nodes=2), seed=0)
    job.mark_started(20.0, cluster.nodes[:2], power_budget_w=600.0)
    assert job.wait_time_s() == pytest.approx(10.0)
    job.mark_completed(50.0, None)
    assert job.run_time_s() == pytest.approx(30.0)
    assert job.turnaround_s() == pytest.approx(40.0)
    assert job.node_count == 2
    assert job.power_budget_w == 600.0


def test_job_invalid_transitions():
    job = Job(request=request("j1"))
    with pytest.raises(RuntimeError):
        job.mark_completed(1.0, None)
    job.mark_started(0.0, [], None)
    job.mark_completed(1.0, None)
    with pytest.raises(RuntimeError):
        job.mark_cancelled(2.0)


# -- queue --------------------------------------------------------------------------------


def test_queue_fcfs_and_backfill_candidates():
    queue = JobQueue()
    jobs = [Job(request=request(f"j{i}", walltime=100.0 * (i + 1))) for i in range(4)]
    for job in jobs:
        queue.push(job)
    assert queue.head() is jobs[0]
    candidates = queue.backfill_candidates(now_s=0.0, shadow_time_s=250.0, fits=lambda j: True)
    # j1 (200s) fits before the 250s shadow time; j2 (300s) and j3 (400s) do not.
    assert candidates == [jobs[1]]
    # A window bound stops the sweep: ``fits`` sees no job past it.
    seen = []

    def fits(job):
        seen.append(job)
        return True

    window = queue.backfill_candidates(0.0, 1000.0, fits=fits, max_candidates=2)
    assert window == seen == jobs[1:3]
    queue.remove(jobs[0])
    assert queue.head() is jobs[1]


def test_queue_rejects_non_pending():
    queue = JobQueue()
    job = Job(request=request("x"))
    job.mark_started(0.0, [], None)
    with pytest.raises(ValueError):
        queue.push(job)


# -- policies ------------------------------------------------------------------------------


def test_site_policies_budget_arithmetic():
    policies = SitePolicies(system_power_budget_w=10_000.0, reserve_fraction=0.1)
    assert policies.schedulable_power_w == pytest.approx(9000.0)
    proportional = policies.job_budget_w(4, 16, 0.0, node_tdp_w=470.0, node_min_w=200.0)
    # The even per-node share (562.5 W) exceeds the node TDP, so it is clamped.
    assert proportional == pytest.approx(4 * 470.0)
    small_share = policies.job_budget_w(4, 32, 0.0, node_tdp_w=470.0, node_min_w=200.0)
    assert small_share == pytest.approx(4 * 9000.0 / 32)
    policies.job_power_policy = JobPowerPolicy.UNLIMITED
    assert policies.job_budget_w(4, 16, 0.0, 470.0, 200.0) is None


def test_site_policies_validation():
    with pytest.raises(ValueError):
        SitePolicies(system_power_budget_w=-1.0)
    with pytest.raises(ValueError):
        SitePolicies(corridor_lower_w=200.0, corridor_upper_w=100.0)


def test_policy_assigner_job_specific_uses_history():
    policies = SitePolicies(geopm_mode=GeopmPolicyMode.JOB_SPECIFIC)
    assigner = PolicyAssigner(policies)
    assigner.record_good_policy(
        "hypre", GeopmPolicy(agent="power_balancer", power_budget_w=900.0),
        {"energy_j": 100.0},
    )
    policy = assigner.assign("job-1", "hypre", job_budget_w=1200.0)
    assert policy.agent == "power_balancer"
    assert policy.power_budget_w == pytest.approx(1200.0)
    unknown = assigner.assign("job-2", "never_seen", job_budget_w=800.0)
    assert unknown.agent == policies.default_geopm_policy.agent


# -- scheduler ---------------------------------------------------------------------------------


def build_scheduler(n_nodes=4, budget_w=None, config=None, power_policy=JobPowerPolicy.PROPORTIONAL):
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes), seed=3)
    policies = SitePolicies(
        system_power_budget_w=budget_w or cluster.total_tdp_w(),
        reserve_fraction=0.0,
        job_power_policy=power_policy,
    )
    scheduler = PowerAwareScheduler(
        env, cluster, policies, config or SchedulerConfig(scheduling_interval_s=5.0),
        RandomStreams(1),
    )
    return scheduler


def test_scheduler_runs_single_job_to_completion():
    scheduler = build_scheduler()
    scheduler.submit(request("j1", nodes=2))
    stats = scheduler.run_until_complete()
    assert stats.jobs_completed == 1
    job = scheduler.jobs["j1"]
    assert job.state is JobState.COMPLETED
    assert job.result is not None and job.result.energy_j > 0
    assert all(node.is_free for node in scheduler.cluster.nodes)
    assert scheduler.committed_power_w == pytest.approx(0.0)


def test_scheduler_config_serves_only_the_event_driver():
    assert SchedulerConfig().driver == "event"
    with pytest.raises(ValueError, match="driver must be 'event'"):
        SchedulerConfig(driver="interval")


def test_scheduler_rejects_duplicate_job_ids():
    scheduler = build_scheduler()
    scheduler.submit(request("dup"))
    with pytest.raises(ValueError):
        scheduler.submit(request("dup"))


def test_scheduler_queues_when_nodes_busy():
    scheduler = build_scheduler(n_nodes=2)
    scheduler.submit(request("big", nodes=2, app=quick_app(6)))
    scheduler.submit(request("waiting", nodes=2))
    assert scheduler.jobs["waiting"].state is JobState.PENDING
    stats = scheduler.run_until_complete()
    assert stats.jobs_completed == 2
    assert scheduler.jobs["waiting"].wait_time_s() > 0


def test_scheduler_power_budget_limits_concurrency():
    # With uncapped (UNLIMITED) jobs, each commits its nodes' full TDP, so the
    # system budget only admits one 2-node job at a time.
    scheduler = build_scheduler(
        n_nodes=4, budget_w=2 * 470.0, power_policy=JobPowerPolicy.UNLIMITED
    )
    scheduler.submit(request("a", nodes=2))
    scheduler.submit(request("b", nodes=2))
    running_together = scheduler.jobs["a"].state is JobState.RUNNING and (
        scheduler.jobs["b"].state is JobState.RUNNING
    )
    assert not running_together
    stats = scheduler.run_until_complete()
    assert stats.jobs_completed == 2


def test_scheduler_backfill_small_job_around_head():
    config = SchedulerConfig(scheduling_interval_s=5.0, backfill=True)
    scheduler = build_scheduler(n_nodes=4, config=config)
    scheduler.submit(request("running", nodes=3, app=quick_app(8)))
    scheduler.submit(request("head", nodes=4, walltime=900.0))       # must wait for all nodes
    scheduler.submit(request("small", nodes=1, walltime=30.0))        # fits in the spare node
    stats = scheduler.run_until_complete()
    assert stats.jobs_completed == 3
    assert scheduler.jobs["small"].launch_metadata.get("backfilled") in (True, False)
    assert stats.backfilled_jobs >= 1


def test_scheduler_moldable_job_shrinks_to_fit():
    scheduler = build_scheduler(n_nodes=2)
    req = request("moldable", nodes=8, malleable=True)
    scheduler.submit(req)
    stats = scheduler.run_until_complete()
    assert stats.jobs_completed == 1
    assert scheduler.jobs["moldable"].node_count <= 2


def test_scheduler_power_aware_selection_prefers_efficient_nodes():
    scheduler = build_scheduler(n_nodes=4)
    ranked = scheduler.cluster.rank_nodes_by_efficiency()
    scheduler.submit(request("picky", nodes=1))
    chosen = scheduler.jobs["picky"].assigned_nodes[0]
    assert chosen.hostname == ranked[0].hostname
    scheduler.run_until_complete()


def test_scheduler_trace_submission_and_stats():
    scheduler = build_scheduler(n_nodes=4)
    jobs = WorkloadGenerator(RandomStreams(5), mean_interarrival_s=30.0,
                             max_nodes_per_job=2).generate(5)
    scheduler.submit_trace(jobs)
    stats = scheduler.run_until_complete()
    assert stats.jobs_submitted == 5
    assert stats.jobs_completed == 5
    assert stats.throughput_jobs_per_hour > 0
    assert 0.0 <= stats.node_utilization <= 1.0
    assert stats.peak_system_power_w >= stats.mean_system_power_w > 0


def test_scheduler_cancel_pending_job():
    scheduler = build_scheduler(n_nodes=1)
    scheduler.submit(request("hold", nodes=1, app=quick_app(6)))
    scheduler.submit(request("victim", nodes=1))
    scheduler.cancel("victim")
    assert scheduler.jobs["victim"].state is JobState.CANCELLED
    stats = scheduler.run_until_complete()
    assert stats.jobs_cancelled == 1


def test_scheduler_geopm_launch_metadata():
    scheduler = build_scheduler(n_nodes=2)
    scheduler.submit(request("meta", nodes=2))
    scheduler.run_until_complete()
    metadata = scheduler.jobs["meta"].launch_metadata
    assert "geopm_agent" in metadata
    assert scheduler.endpoints["meta"].policy_updates >= 1


# -- invasive RM -----------------------------------------------------------------------------------


def build_irm(strategy, corridor=(900.0, 1400.0), n_nodes=4):
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes), seed=7)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(),
        corridor_lower_w=corridor[0],
        corridor_upper_w=corridor[1],
        reserve_fraction=0.0,
    )
    return InvasiveResourceManager(
        env, cluster, policies, SchedulerConfig(scheduling_interval_s=5.0),
        RandomStreams(2), strategy=strategy, control_interval_s=10.0,
    )


def test_irm_assigns_epop_runtime_to_malleable_jobs():
    irm = build_irm(CorridorStrategy.INVASIVE)
    irm.submit(request("m1", nodes=2, malleable=True, app=quick_app(10, 1.0)))
    assert isinstance(irm.runtime_handles["m1"], EpopRuntime)
    irm.run_until_complete()


def test_irm_predicted_power_positive():
    irm = build_irm(CorridorStrategy.INVASIVE)
    irm.submit(request("m1", nodes=2, malleable=True, app=quick_app(10, 1.0)))
    assert irm.predicted_power_w() > 0


def test_irm_invasive_strategy_reacts_to_upper_violation():
    irm = build_irm(CorridorStrategy.INVASIVE, corridor=(200.0, 700.0))
    irm.submit(request("m1", nodes=3, malleable=True, app=quick_app(30, 1.5)))
    irm.run_until_complete()
    actions = {event.action for event in irm.events}
    assert actions, "expected at least one corridor action"
    report = irm.corridor_report()
    assert report["events"] >= 1


def test_irm_power_capping_strategy_tightens_caps():
    irm = build_irm(CorridorStrategy.POWER_CAPPING, corridor=(200.0, 700.0))
    irm.submit(request("r1", nodes=3, malleable=False, app=quick_app(30, 1.5)))
    irm.run_until_complete()
    assert any(event.action == "tighten_caps" for event in irm.events)


def test_irm_corridor_report_contains_compliance():
    irm = build_irm(CorridorStrategy.NONE)
    irm.submit(request("r1", nodes=2, app=quick_app(5, 0.5)))
    irm.run_until_complete()
    report = irm.corridor_report()
    assert "violation_fraction" in report
    assert 0.0 <= report["violation_fraction"] <= 1.0
