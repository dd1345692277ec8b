"""Vectorized scheduling core: parity, backfill invariants, regression tests.

Covers the PR-3 scheduler work:

* array twins (`free_node_indices`, `rank_free_by_*`) match the scalar
  ranking API node for node;
* the incremental :class:`NodeAvailabilityProfile` matches a brute-force
  sort of the running set;
* the shared feasibility kernel keeps backfill candidacy (`_fits_now`)
  and the actual launch (`_try_start`) on the same ranked candidate set
  (the old code checked feasibility on unranked ``free[:count]``);
* EASY invariant: the head job never starts later than its recorded
  reservation, including across cancels of running jobs (the old
  ``cancel()`` dropped the job from reservation accounting early, letting
  long backfills delay the head);
* cancelled jobs never surface in ``scheduler.completed``;
* the scalar reference (``oracles.ScalarScheduler``) and the vectorized
  scheduler produce bit-identical schedules and SchedulerStats on
  identical traces;
* a drained scheduler keeps no simulator, so dropping it leaves no
  per-job reference cycle for the garbage collector.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ScalarScheduler,
    choose_node_count_by_list,
    free_nodes,
    rank_nodes_by_temperature,
)
from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.generator import JobRequest, WorkloadGenerator
from repro.apps.lulesh import LuleshProxy
from repro.apps.mpi import RuntimeHooks
from repro.apps.stream import StreamTriad
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.hardware.variation import VariationModel
from repro.resource_manager.job import Job, JobState
from repro.resource_manager.overprovisioning import (
    DARK_NODE_POWER_W,
    OverprovisioningPlanner,
    PoweredPartition,
)
from repro.resource_manager.policies import SitePolicies
from repro.resource_manager.slurm import (
    LaunchPlan,
    NodeAvailabilityProfile,
    PowerAwareScheduler,
    SchedulerConfig,
)
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.workloads.replay import TraceReplayApplication
from repro.workloads.synth import synthesize_replay_trace


def app_with_runtime(name, seconds_per_iter, iterations):
    return SyntheticApplication(
        name,
        [make_phase("work", seconds_per_iter, kind="mixed", ref_threads=56)],
        n_iterations=iterations,
    )


def request(job_id, nodes=1, arrival=0.0, walltime=600.0, app=None,
            malleable=False, nodes_min=None, nodes_max=None):
    return JobRequest(
        job_id=job_id,
        application=app or app_with_runtime(f"app_{job_id}", 0.4, 3),
        nodes_requested=nodes,
        nodes_min=nodes_min,
        nodes_max=nodes_max,
        malleable=malleable,
        arrival_time_s=arrival,
        walltime_estimate_s=walltime,
    )


def build_scheduler(n_nodes=6, seed=3, scheduler_cls=PowerAwareScheduler, variation=None,
                    **config_kwargs):
    env = Environment()
    spec = ClusterSpec(n_nodes=n_nodes)
    if variation is not None:
        spec = ClusterSpec(n_nodes=n_nodes, variation=variation)
    cluster = Cluster(spec, seed=seed)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(), reserve_fraction=0.0
    )
    config = SchedulerConfig(scheduling_interval_s=5.0, **config_kwargs)
    return scheduler_cls(env, cluster, policies, config, RandomStreams(1))


# -- array twins --------------------------------------------------------------------


def test_rank_twins_match_scalar_rankings():
    cluster = Cluster(ClusterSpec(n_nodes=16), seed=11)
    for i in (1, 4, 9, 13):
        cluster.nodes[i].allocate("busy")
    assert list(cluster.free_node_indices()) == [
        n.node_id for n in free_nodes(cluster)
    ]
    assert list(cluster.rank_free_by_efficiency()) == [
        n.node_id for n in cluster.rank_nodes_by_efficiency(free_nodes(cluster))
    ]
    assert list(cluster.rank_free_by_temperature()) == [
        n.node_id for n in rank_nodes_by_temperature(free_nodes(cluster))
    ]


def test_set_node_frequencies_matches_scalar_setter():
    cluster = Cluster(ClusterSpec(n_nodes=6), seed=2)
    requests = np.array([1.73, 3.9, 0.4, 2.0, 2.41, 1.0])
    granted = cluster.state.set_node_frequencies(requests)
    for i, node in enumerate(cluster.nodes):
        for s, pkg in enumerate(node.packages):
            want = pkg.clamp_frequency(float(requests[i]))
            assert granted[i, s] == pytest.approx(want, abs=0)
            assert pkg.frequency_ghz == want


# -- availability profile ------------------------------------------------------------


def test_availability_profile_matches_bruteforce():
    rng = np.random.default_rng(7)
    profile = NodeAvailabilityProfile()
    entries = {}
    for step in range(300):
        if entries and rng.random() < 0.35:
            victim = str(rng.choice(sorted(entries)))
            profile.remove(victim)
            del entries[victim]
        else:
            job_id = f"j{step}"
            release = float(rng.uniform(0.0, 500.0))
            count = int(rng.integers(1, 9))
            profile.add(job_id, release, count)
            entries[job_id] = (release, count)
        needed = int(rng.integers(1, 24))
        free = int(rng.integers(0, 6))
        now = float(rng.uniform(0.0, 400.0))
        # Brute force: the scalar reference computation.
        if free >= needed:
            expected = now
        else:
            available = free
            expected = None
            for when, count in sorted(entries.values()):
                available += count
                if available >= needed:
                    expected = max(when, now)
                    break
            if expected is None:
                expected = now + 10 * 3600.0
        assert profile.earliest_start(needed, free, now) == expected


# -- shared feasibility kernel (heterogeneous regression) ---------------------------


def test_fits_now_and_launch_share_ranked_candidate_set():
    """Candidacy and launch must evaluate the same (ranked) node set.

    On a cluster with strong manufacturing variation the efficiency
    ranking differs from node-id order, which is exactly where the old
    ``_fits_now`` (unranked ``free[:count]``) could diverge from the
    launch path.
    """
    variation = VariationModel(power_sigma=0.15, turbo_sigma=0.05)
    scheduler = build_scheduler(n_nodes=12, seed=9, variation=variation)
    cluster = scheduler.cluster
    # Scramble the free set so free-id order != efficiency order.
    for i in (0, 3, 7):
        cluster.nodes[i].allocate("pinned")

    job = scheduler.jobs.setdefault("probe", Job(request=request("probe", nodes=4)))
    plan = scheduler._plan_launch(job)
    assert plan is not None
    ranked = list(cluster.rank_free_by_efficiency()[:4])
    assert list(plan.node_indices) == ranked
    # With variation, the ranked prefix differs from the unranked one the
    # old _fits_now used — the heterogeneity this regression guards.
    unranked = list(cluster.free_node_indices()[:4])
    assert ranked != unranked
    # Candidacy and launch agree.
    assert scheduler._fits_now(job)
    assert scheduler._try_start(job)
    launched = sorted(n.node_id for n in scheduler.jobs["probe"].assigned_nodes)
    assert launched == sorted(ranked)


def test_launch_plan_keeps_fields_and_immutability():
    scheduler = build_scheduler(n_nodes=4)
    plan = scheduler._plan_launch(Job(request=request("probe", nodes=2)))
    assert isinstance(plan, LaunchPlan)
    assert LaunchPlan._fields == ("node_count", "node_indices", "budget_w", "commitment_w")
    assert plan == (2, plan.node_indices, plan.budget_w, plan.commitment_w)
    assert len(plan.node_indices) == 2
    with pytest.raises(AttributeError):
        plan.budget_w = 0.0
    # Every node shares the cluster's spec, so the spec TDP is the budget's
    # node TDP whichever node the plan ranks first.
    cluster = scheduler.cluster
    assert plan.budget_w == scheduler.policies.job_budget_w(
        job_nodes=2,
        total_nodes=4,
        committed_power_w=0.0,
        node_tdp_w=cluster.nodes[plan.node_indices[0]].max_power_w(),
        node_min_w=cluster.spec.node.min_power_w,
    )


class _RankSetApp(TraceReplayApplication):
    """A replay application that accepts exactly the given rank counts."""

    def __init__(self, allowed):
        super().__init__(duration_s=60.0)
        self.allowed = frozenset(allowed)

    def rank_constraint(self, ranks):
        return ranks in self.allowed


@given(
    allowed=st.sets(st.integers(1, 24), max_size=12),
    bounds=st.none() | st.tuples(st.integers(1, 24), st.integers(0, 12)),
    preferred=st.integers(1, 24),
    free_count=st.integers(0, 30),
)
@settings(max_examples=200, deadline=None)
def test_choose_node_count_matches_list_rule(allowed, bounds, preferred, free_count):
    """The allocation-free choice equals the old rule over a fitting list."""
    nodes_min, nodes_max = (None, None) if bounds is None else (bounds[0], sum(bounds))
    job = Job(request=JobRequest(
        "probe", _RankSetApp(allowed), nodes_requested=preferred,
        nodes_min=nodes_min, nodes_max=nodes_max,
    ))
    acceptable = job.request.acceptable_node_counts()
    assert acceptable == sorted(set(acceptable))
    assert build_scheduler(n_nodes=1)._choose_node_count(
        job, free_count
    ) == choose_node_count_by_list(acceptable, preferred, free_count)


# -- teardown --------------------------------------------------------------------------


def drain_replay(n_jobs, n_nodes=64, seed=931):
    """A contended replay drain shaped like the ``sched_contended`` benchmark."""
    trace = synthesize_replay_trace(
        n_jobs, seed=seed, mean_interarrival_s=12.4 * 512 / n_nodes,
        mean_runtime_s=600.0, max_nodes_per_job=64, arrival_quantum_s=30.0,
    )
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes), seed=seed)
    policies = SitePolicies(system_power_budget_w=0.85 * cluster.total_tdp_w())
    config = SchedulerConfig(
        monitor_interval_s=3600.0, backfill_depth=100,
        runtime_factory=lambda job, budget, scheduler: RuntimeHooks(),
    )
    scheduler = PowerAwareScheduler(Environment(), cluster, policies, config,
                                    RandomStreams(seed))
    scheduler.submit_trace(trace)
    stats = scheduler.run_until_complete()
    assert stats.jobs_completed == n_jobs
    return scheduler


def test_drained_scheduler_holds_no_simulators():
    assert drain_replay(50)._sims == {}
    assert run_trace(PowerAwareScheduler)[2]._sims == {}


def test_dropped_drained_scheduler_leaves_no_per_job_cycles():
    """Objects in cycles after dropping a drained scheduler do not grow
    with the number of jobs it ran (finished jobs are freed by refcount)."""

    def cyclic_garbage(n_jobs):
        gc.collect()
        gc.disable()
        try:
            scheduler = drain_replay(n_jobs)
            gc.collect()  # only what dropping the scheduler leaves
            del scheduler
            return gc.collect()
        finally:
            gc.enable()

    assert cyclic_garbage(50) == cyclic_garbage(300)


def test_failed_job_with_plain_hooks_keeps_site_caps():
    """Only a ``JobRuntime`` resets its nodes; plain hooks never do, so a
    site cap survives a failed job as it survives a completed one."""
    scheduler = build_scheduler(
        n_nodes=1, runtime_factory=lambda job, budget, scheduler: RuntimeHooks()
    )
    node = scheduler.cluster.nodes[0]
    cap = node.set_power_cap(300.0)
    bad = scheduler.submit(request("bad", nodes=1, app=StreamTriad(array_mib=1e308)))
    scheduler.run_until_complete()
    assert bad.state is JobState.FAILED
    assert node.node_power_cap_w == cap


# -- cancel accounting ---------------------------------------------------------------


def test_cancel_running_job_stays_visible_until_reclaimed_and_not_completed():
    scheduler = build_scheduler(n_nodes=2)
    scheduler.submit(request("victim", nodes=2, app=app_with_runtime("long", 1.0, 8)))
    assert scheduler.jobs["victim"].state is JobState.RUNNING
    scheduler.cancel("victim")
    job = scheduler.jobs["victim"]
    assert job.state is JobState.CANCELLED
    # Still visible to reservation accounting until the simulator unwinds.
    assert "victim" in scheduler.running
    assert len(scheduler._availability) == 1
    stats = scheduler.run_until_complete()
    assert stats.jobs_cancelled == 1
    assert "victim" not in scheduler.running
    assert len(scheduler._availability) == 0
    assert all(node.is_free for node in scheduler.cluster.nodes)
    assert scheduler.committed_power_w == pytest.approx(0.0)
    # Cancelled jobs must not surface as completed.
    assert job not in scheduler.completed
    assert stats.jobs_completed == 0


def test_cancel_does_not_let_backfill_delay_head():
    """EASY regression: a cancel must not blow up the reservation.

    The old ``cancel()`` popped the job from ``running`` immediately, so
    the head's shadow fell back to "nothing frees up soon" (+10 h) and a
    very long job could backfill ahead of the head.  With the fix the
    cancelled job stays in reservation accounting until its nodes are
    actually reclaimed, the long candidate is rejected, and the head
    starts within its promised reservation.
    """
    scheduler = build_scheduler(n_nodes=6)
    env = scheduler.env
    # 20 s iterations: the cancel at t=50 leaves A un-unwound until ~t=60,
    # so a scheduling pass (t=55) runs inside the cancel window.
    scheduler.submit(
        request("A", nodes=2, walltime=4000.0, app=app_with_runtime("a", 20.0, 6))
    )
    scheduler.submit(
        request("B", nodes=2, walltime=600.0, app=app_with_runtime("b", 2.0, 40))
    )
    scheduler.submit(request("head", nodes=6, walltime=900.0))
    scheduler.submit(
        request("C", nodes=1, walltime=25_000.0, app=app_with_runtime("c", 60.0, 300))
    )
    assert scheduler.jobs["A"].state is JobState.RUNNING
    assert scheduler.jobs["B"].state is JobState.RUNNING
    assert scheduler.jobs["head"].state is JobState.PENDING
    # The head was promised a reservation based on A's and B's estimates.
    promised = scheduler.head_reservations["head"]
    assert promised <= 4000.0 + 1e-9

    scheduler.start()
    env.run(until=50.0)
    scheduler.cancel("A")
    stats = scheduler.run_until_complete()

    head = scheduler.jobs["head"]
    assert head.state is JobState.COMPLETED
    # The 25 000 s-estimate candidate must not have jumped the head...
    assert scheduler.jobs["C"].start_time_s >= head.start_time_s
    assert scheduler.jobs["C"].launch_metadata.get("backfilled") is False
    # ...and the head started no later than its tightest promise.
    assert head.start_time_s <= scheduler.head_reservations["head"] + 1e-6
    assert head.start_time_s <= promised + 1e-6
    assert stats.jobs_cancelled == 1


# -- never-runnable submissions ------------------------------------------------------


def test_never_runnable_job_is_rejected_not_queued_forever():
    scheduler = build_scheduler(n_nodes=4)
    # LULESH needs cubic rank counts: 2 nodes x 1 rank can never run.
    bad = scheduler.submit(
        request("bad", nodes=2, app=LuleshProxy(n_timesteps=5))
    )
    assert bad.state is JobState.FAILED
    assert "reject_reason" in bad.launch_metadata
    scheduler.submit(request("good", nodes=2))
    stats = scheduler.run_until_complete()
    assert stats.jobs_completed == 1
    assert scheduler.jobs["good"].state is JobState.COMPLETED


def test_job_whose_simulator_raises_is_failed_and_released():
    scheduler = build_scheduler(n_nodes=4)
    # A valid spec whose phases overflow to an infinite duration on one node.
    bad = scheduler.submit(request("bad", nodes=1, app=StreamTriad(array_mib=1e308)))
    good = scheduler.submit(request("good", nodes=2))
    assert bad.state is JobState.RUNNING and scheduler.committed_power_w > 0
    stats = scheduler.run_until_complete()

    assert bad.state is JobState.FAILED
    assert bad.end_time_s == bad.start_time_s == 0.0
    assert bad.launch_metadata["failure_reason"].startswith(
        "ValueError: ref_seconds must be finite"
    )
    assert good.state is JobState.COMPLETED
    assert stats.jobs_completed == 1
    # The ledger balances: nothing committed, running or reserved, every node free.
    assert scheduler.committed_power_w == stats.committed_power_w == 0.0
    assert not scheduler.running
    assert len(scheduler._availability) == 0
    assert all(node.is_free for node in scheduler.cluster.nodes)


def test_workload_generator_respects_rank_constraints_when_capping():
    jobs = WorkloadGenerator(
        RandomStreams(5), mean_interarrival_s=10.0, max_nodes_per_job=2
    ).generate(40)
    assert all(job.acceptable_node_counts() for job in jobs)


# -- EASY invariant across randomized traces ----------------------------------------


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_property_head_never_starts_after_reservation(seed):
    """Property: across randomized traces (with cancels), every job that
    was ever the queue head starts no later than the tightest reservation
    it was promised — provided walltime estimates upper-bound actuals."""
    rng = np.random.default_rng(seed)
    n_jobs = 12
    # Measure each app's actual runtime on its own cluster first, then
    # submit with a 1.5x estimate so estimates are true upper bounds.
    specs = []
    for i in range(n_jobs):
        seconds = float(rng.uniform(0.5, 4.0))
        iters = int(rng.integers(2, 10))
        nodes = int(rng.choice([1, 1, 2, 2, 3, 4]))
        specs.append((f"j{i:02d}", seconds, iters, nodes, float(rng.uniform(0.0, 120.0))))

    measured = {}
    for job_id, seconds, iters, nodes, _ in specs:
        probe = build_scheduler(n_nodes=8, seed=seed, static_imbalance=0.0,
                                imbalance_sigma=0.0)
        probe.submit(request(job_id, nodes=nodes,
                             app=app_with_runtime(f"m_{job_id}", seconds, iters),
                             walltime=100000.0))
        probe.run_until_complete()
        measured[job_id] = probe.jobs[job_id].run_time_s()

    scheduler = build_scheduler(n_nodes=8, seed=seed, static_imbalance=0.0,
                                imbalance_sigma=0.0)
    requests = [
        request(job_id, nodes=nodes, arrival=arrival,
                app=app_with_runtime(f"m_{job_id}", seconds, iters),
                walltime=measured[job_id] * 1.5 + 5.0)
        for job_id, seconds, iters, nodes, arrival in specs
    ]
    scheduler.submit_trace(requests)
    scheduler.start()
    # Cancel a couple of (hopefully running) jobs mid-trace to exercise
    # the cancel/reservation interaction.
    scheduler.env.run(until=60.0)
    cancelled = 0
    for job_id in list(scheduler.running):
        scheduler.cancel(job_id)
        cancelled += 1
        if cancelled == 2:
            break
    stats = scheduler.run_until_complete()
    assert stats.jobs_submitted == n_jobs

    for job_id, reservation in scheduler.head_reservations.items():
        job = scheduler.jobs[job_id]
        if job.start_time_s is None:
            continue
        assert job.start_time_s <= reservation + 1e-6, (
            f"{job_id} started at {job.start_time_s} after its promised "
            f"reservation {reservation}"
        )


# -- scalar vs vectorized parity -----------------------------------------------------


def run_trace(scheduler_cls, n_jobs=18, seed=13):
    scheduler = build_scheduler(n_nodes=12, seed=seed, scheduler_cls=scheduler_cls)
    jobs = WorkloadGenerator(
        RandomStreams(seed), mean_interarrival_s=20.0, max_nodes_per_job=4
    ).generate(n_jobs)
    scheduler.submit_trace(jobs)
    stats = scheduler.run_until_complete()
    schedule = {
        job_id: (
            job.start_time_s,
            job.end_time_s,
            tuple(n.node_id for n in job.assigned_nodes),
            job.launch_metadata.get("backfilled"),
        )
        for job_id, job in scheduler.jobs.items()
    }
    return schedule, stats, scheduler


def test_scalar_and_vectorized_paths_produce_identical_schedules():
    schedule_vec, stats_vec, sched_vec = run_trace(PowerAwareScheduler)
    schedule_sca, stats_sca, sched_sca = run_trace(ScalarScheduler)
    assert schedule_vec == schedule_sca  # bit-identical starts/ends/nodes
    assert sched_vec.backfilled_jobs == sched_sca.backfilled_jobs
    assert sched_vec.head_reservations == sched_sca.head_reservations
    for key, value in stats_vec.as_dict().items():
        assert value == pytest.approx(stats_sca.as_dict()[key], abs=1e-9), key


# -- overprovisioning vectorized preparation ----------------------------------------


def test_overprovision_dark_accelerator_cap_sticks():
    """Pinned semantics: with accelerators_powered=False, powered nodes'
    GPUs sit at their minimum cap after preparation.  (The seed's per-node
    loop set the min cap and then immediately overwrote it with the GPU's
    TDP share, so dark GPUs were never actually restricted.)"""
    from repro.hardware.node import NodeSpec

    cluster = Cluster(
        ClusterSpec(n_nodes=4, node=NodeSpec(n_gpus=2)), seed=3
    )
    planner = OverprovisioningPlanner(
        cluster, 3 * cluster.spec.node.tdp_w, include_accelerator_choice=True, seed=3
    )
    spec = cluster.spec.node
    nodes = planner._prepare_nodes(PoweredPartition(3, 600.0, accelerators_powered=False))
    expected_pkg = min(
        spec.cpu.tdp_w,
        max(
            spec.cpu.min_power_cap_w,
            (600.0 - spec.platform_power_w - spec.n_gpus * spec.gpu.min_power_cap_w)
            / spec.n_sockets,
        ),
    )
    for node in nodes:
        for gpu in node.gpus:
            assert gpu.power_cap_w == pytest.approx(gpu.spec.min_power_cap_w)
        # The dark GPUs' budget share is handed to the CPU packages.
        for pkg in node.packages:
            assert pkg.power_cap_w == pytest.approx(expected_pkg)
    # Sanity: the freed share is a real boost over the TDP-proportional split.
    powered = planner._prepare_nodes(PoweredPartition(3, 600.0, accelerators_powered=True))
    assert expected_pkg > powered[0].packages[0].power_cap_w


def test_irm_resize_keeps_reservation_profile_in_sync():
    """Malleable grow/shrink must update the availability profile's node
    count (and the owned-node ledger the scalar path reads), or the EASY
    reservation computes from stale counts."""
    from repro.resource_manager.irm import CorridorStrategy, InvasiveResourceManager

    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=8), seed=7)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(),
        corridor_lower_w=500.0,
        corridor_upper_w=2000.0,
        reserve_fraction=0.0,
    )
    irm = InvasiveResourceManager(
        env, cluster, policies, SchedulerConfig(scheduling_interval_s=5.0),
        RandomStreams(2), strategy=CorridorStrategy.INVASIVE, control_interval_s=10.0,
    )
    irm.submit(request(
        "m1", nodes=2, malleable=True, nodes_min=1, nodes_max=6,
        app=app_with_runtime("mall", 2.0, 30),
    ))
    assert irm.jobs["m1"].state is JobState.RUNNING
    assert irm._availability._entries["m1"][1] == 2
    # Let the EPOP runtime attach and finish a couple of iterations so
    # resizes are accepted.
    irm.start()
    env.run(until=6.0)

    # Grow the job: profile count must follow the owned ledger.
    irm._expand_malleable(deficit_w=2000.0, predicted=500.0)
    owned_after_expand = len(irm._owned_nodes["m1"])
    assert owned_after_expand > 2
    assert irm._availability._entries["m1"][1] == owned_after_expand

    # Shrink: run until the elastic point applies it, then reclaim.
    irm._shrink_malleable(excess_w=1500.0, predicted=2500.0)
    env.run(until=env.now + 30.0)
    irm._reclaim_released_nodes()
    owned_after_shrink = len(irm._owned_nodes["m1"])
    assert irm._availability._entries["m1"][1] == owned_after_shrink
    irm.run_until_complete()
    assert all(node.is_free for node in cluster.nodes)


def test_overprovision_prepare_nodes_matches_scalar_semantics():
    cluster = Cluster(ClusterSpec(n_nodes=6), seed=4)
    planner = OverprovisioningPlanner(cluster, 3 * cluster.spec.node.tdp_w, seed=4)
    partition = PoweredPartition(4, 300.0)
    nodes = planner._prepare_nodes(partition)
    assert len(nodes) == 4
    spec = cluster.spec.node
    for node in nodes:
        assert node.is_free
        assert node.node_power_cap_w == pytest.approx(max(300.0, spec.min_power_w))
        for pkg in node.packages:
            assert pkg.frequency_ghz == pkg.clamp_frequency(spec.cpu.freq_max_ghz)
            assert pkg.uncore_ghz == pytest.approx(spec.cpu.uncore_max_ghz)
    for node in cluster.nodes[4:]:
        assert node.current_power_w == pytest.approx(DARK_NODE_POWER_W)
        assert node.node_power_cap_w is None
