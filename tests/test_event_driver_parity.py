"""Decision parity: the event-driven scheduler == the fixed-tick reference.

The event engine (idle fast-forward, coalesced passes, suspended
monitor, O(schedulable) sweeps) is a pure *when-to-wake* optimization:
for any workload it must produce bit-identical scheduling decisions —
per-job start times, node assignments, terminal states — and identical
aggregate stats to the interval ticker kept in ``oracles.py``.  This
suite pins that equivalence across the scenarios that stress different
wakeup sources: FCFS/EASY contention, mid-flight cancels, injected node
crashes with requeue, and binding power budgets.
"""

import numpy as np
import pytest

from oracles import IntervalDriverScheduler
from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.generator import JobRequest
from repro.apps.mpi import RuntimeHooks
from repro.faults import injector as faults
from repro.faults.profiles import get_profile
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.resource_manager.policies import SitePolicies
from repro.resource_manager.slurm import PowerAwareScheduler, SchedulerConfig
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.workloads.synth import synthesize_replay_trace


def build_scheduler(
    scheduler_cls=PowerAwareScheduler,
    n_nodes=32,
    seed=11,
    budget_fraction=None,
    bare_runtime=True,
    **config_kwargs,
):
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes), seed=seed)
    budget = cluster.total_tdp_w()
    if budget_fraction is not None:
        budget *= budget_fraction
    policies = SitePolicies(system_power_budget_w=budget, reserve_fraction=0.0)
    if bare_runtime:
        config_kwargs.setdefault(
            "runtime_factory", lambda job, budget_w, sched: RuntimeHooks()
        )
    config = SchedulerConfig(**config_kwargs)
    return scheduler_cls(env, cluster, policies, config, RandomStreams(seed))


def decisions(scheduler):
    """Everything a scheduling decision determines, per job."""
    return tuple(
        (
            job_id,
            job.state.name,
            job.start_time_s,
            job.end_time_s,
            tuple(n.node_id for n in job.assigned_nodes),
            job.restarts,
        )
        for job_id, job in sorted(scheduler.jobs.items())
    )


def fingerprint(scheduler, stats):
    series = scheduler.power_series
    return (
        decisions(scheduler),
        stats.as_dict(),
        series.times.tolist(),
        series.values.tolist(),
    )


def replay_trace(count=150, seed=3, **kwargs):
    kwargs.setdefault("mean_interarrival_s", 4.0)
    kwargs.setdefault("mean_runtime_s", 400.0)
    kwargs.setdefault("max_nodes_per_job", 16)
    return synthesize_replay_trace(count, seed=seed, **kwargs)


def physics_trace(n_jobs=24, seed=9):
    rng = np.random.default_rng(seed)
    requests = []
    t = 0.0
    for i in range(n_jobs):
        base = float(rng.uniform(30.0, 90.0))
        nodes = int(rng.choice([1, 2, 4, 16], p=[0.35, 0.3, 0.25, 0.1]))
        app = SyntheticApplication(
            f"phys_{i}",
            [make_phase("work", base, kind="mixed", ref_threads=56)],
            n_iterations=2,
        )
        requests.append(
            JobRequest(
                job_id=f"phys-{i:03d}",
                application=app,
                nodes_requested=nodes,
                walltime_estimate_s=base * 2 * 2.0,
                arrival_time_s=t,
            )
        )
        t += float(rng.exponential(20.0))
    return requests


def run_driver(scheduler_cls, requests, before_run=None, inject=None, **build_kwargs):
    scheduler = build_scheduler(scheduler_cls, **build_kwargs)
    scheduler.submit_trace(requests)
    if before_run is not None:
        before_run(scheduler)
    if inject is not None:
        with faults.injected(inject):
            stats = scheduler.run_until_complete()
    else:
        stats = scheduler.run_until_complete()
    return scheduler, stats


def assert_driver_parity(requests, before_run=None, profile=None, **build_kwargs):
    results = [
        run_driver(
            scheduler_cls, list(requests), before_run=before_run,
            inject=get_profile(profile, seed=7) if profile else None,
            **build_kwargs,
        )
        for scheduler_cls in (PowerAwareScheduler, IntervalDriverScheduler)
    ]
    (sched_e, stats_e), (sched_i, stats_i) = results
    assert fingerprint(sched_e, stats_e) == fingerprint(sched_i, stats_i)
    return results[0]


def test_fcfs_easy_parity_on_contended_replay_trace():
    """Overloaded queue: FCFS blocking, EASY reservations, backfills."""
    scheduler, stats = assert_driver_parity(replay_trace())
    assert stats.jobs_completed == 150
    assert stats.backfilled_jobs > 0  # EASY actually exercised
    assert stats.mean_wait_s > 0.0  # the queue actually formed


def test_parity_with_quantized_arrival_batches():
    """Same-timestamp arrival batches coalesce into one pass per stamp."""
    trace = replay_trace(count=100, arrival_quantum_s=30.0)
    scheduler, stats = assert_driver_parity(trace)
    assert stats.jobs_completed == 100


def test_parity_on_full_physics_trace():
    """Physics jobs (multi-event simulators, default runtime) agree too."""
    scheduler, stats = assert_driver_parity(
        physics_trace(), n_nodes=16, bare_runtime=False
    )
    assert stats.jobs_completed == 24


def test_parity_under_cancels():
    """Pending and running cancels wake the event driver identically."""
    trace = replay_trace(count=60, seed=5, mean_interarrival_s=10.0)
    targets = ("trace-000002", "trace-000010", "trace-000040")

    def schedule_cancels(scheduler):
        def canceller():
            for at, job_id in zip((50.0, 130.0, 700.0), targets):
                delay = at - scheduler.env.now
                if delay > 0:
                    yield scheduler.env.timeout(delay)
                if job_id in scheduler.jobs and scheduler.jobs[job_id].is_active:
                    scheduler.cancel(job_id)

        scheduler.env.process(canceller())

    scheduler, stats = assert_driver_parity(trace, before_run=schedule_cancels)
    assert stats.jobs_cancelled > 0
    assert stats.jobs_completed + stats.jobs_cancelled == 60


def test_parity_under_node_crashes():
    """Crash + repair + requeue hang off the event loop bit-identically."""
    scheduler, stats = assert_driver_parity(
        physics_trace(n_jobs=12, seed=4),
        n_nodes=8,
        bare_runtime=False,
        profile="node-crash",
        requeue_on_crash=True,
    )
    assert stats.jobs_requeued + stats.crash_failures > 0  # chaos fired
    assert all(not job.is_active for job in scheduler.jobs.values())


def test_parity_under_binding_power_budget():
    """Power admission (not node supply) gates launches the same way."""
    trace = replay_trace(count=80, seed=13, max_nodes_per_job=8)
    scheduler, stats = assert_driver_parity(trace, budget_fraction=0.35)
    assert stats.jobs_completed == 80
    # The budget actually binds: the capped run schedules differently
    # from an uncapped one (power admission, not node supply, gated it).
    uncapped, _ = run_driver(PowerAwareScheduler, list(trace))
    assert decisions(scheduler) != decisions(uncapped)


@pytest.mark.parametrize("budget_fraction", (0.5, None))
def test_parity_across_budget_trace_segments(budget_fraction):
    """The campaign's budget-trace axis replays each segment at a fixed
    budget; both drivers must agree segment by segment."""
    trace = replay_trace(count=40, seed=21)
    scheduler, stats = assert_driver_parity(trace, budget_fraction=budget_fraction)
    assert stats.jobs_completed == 40


def gapped_trace():
    """A burst of short jobs, a ~10k-second idle gap, then a second burst."""
    first = replay_trace(count=8, seed=2, mean_interarrival_s=1.0,
                         mean_runtime_s=50.0, max_nodes_per_job=4)
    second = replay_trace(count=8, seed=6, mean_interarrival_s=1.0,
                          mean_runtime_s=50.0, max_nodes_per_job=4,
                          start_time_s=10_000.0, job_id_prefix="late")
    return list(first) + list(second)


def test_event_monitor_suspends_while_idle():
    """Satellite: the monitor parks during idle spells instead of ticking."""
    trace = gapped_trace()
    scheduler = build_scheduler(monitor_interval_s=5.0)
    scheduler.submit_trace(list(trace))
    scheduler.start()
    scheduler.env.run(until=5_000.0)  # mid-gap: nothing runs
    assert not scheduler.running
    assert scheduler._mon_suspended
    stats = scheduler.run_until_complete()
    assert stats.jobs_completed == 16


def test_idle_fast_forward_saves_wakeups_but_not_samples():
    """The gap costs the tick reference thousands of DES events; the
    event driver skips them while reproducing the identical sampling
    grid (catch-up replays owed samples at their grid stamps)."""
    trace = gapped_trace()
    event_sched, event_stats = run_driver(PowerAwareScheduler, list(trace),
                                          monitor_interval_s=5.0)
    interval_sched, interval_stats = run_driver(IntervalDriverScheduler, list(trace),
                                                monitor_interval_s=5.0)
    assert fingerprint(event_sched, event_stats) == \
        fingerprint(interval_sched, interval_stats)
    # ~10k s of idle at 5 s/tick ≈ 2000 monitor wakeups (plus 1000
    # scheduler ticks) the event driver never schedules.
    assert event_sched.env._eid < interval_sched.env._eid - 2000
