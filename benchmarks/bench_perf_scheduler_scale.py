"""Perf — scheduler-pass throughput of the vectorized scheduling core.

The power-aware FCFS+EASY scheduler runs node selection, power
feasibility and the head-job reservation on every scheduling pass.  The
seed implementation walked Python ``Node`` lists per job per pass
(``free_nodes()`` + per-node ``np.mean`` ranking keys + a sort of the
whole running set for every shadow computation), which caps
scheduler-scale experiments at a few dozen nodes.  PR 3 moved those hot
loops onto the struct-of-arrays ``ClusterState`` (masked argsorts over
the cached variation column, an incrementally maintained
``NodeAvailabilityProfile``).

This benchmark measures the production scheduler at 1024 nodes against
the references in ``tests/oracles.py`` (``ScalarScheduler``, the per-Node
list path, and ``IntervalDriverScheduler``, the fixed-tick driver):

* **pass throughput** — identical frozen scheduler states (768 busy
  nodes, 384 running jobs, a 64-deep queue whose head cannot start); one
  "pass" is the head's reservation plus a backfill-candidacy sweep over
  the queue.  Records the speedup over the scalar reference (asserted
  >= 5x, guarded against regression in BENCH_perf.json).
* **physics-trace parity** — a 2000-job full-physics trace driven
  end-to-end through the DES by production and the scalar reference must
  produce *bit-identical* job start/finish times+nodes and SchedulerStats
  parity <= 1e-9.
* **replay-trace throughput** — the headline ``trace_jobs_per_wall_sec``
  metric: a 10000-job replay-fidelity trace (one DES timeout per job,
  constant power) under the event driver, timed before the physics
  sections churn the heap, with decision parity pinned three ways on a
  2000-job sibling trace — physics production==scalar, replay
  production==scalar, and replay event==interval (bit-identical start
  times, node sets and stats).  The event-driven engine moved this from
  ~232 jobs/s (full physics, interval ticks) to five figures; the
  recorded value is regression-guarded.
"""

import gc
import time

import numpy as np
from conftest import banner, record_perf, run_once
from oracles import IntervalDriverScheduler, ScalarScheduler

from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.generator import JobRequest
from repro.apps.mpi import RuntimeHooks
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.resource_manager.job import Job
from repro.resource_manager.policies import SitePolicies
from repro.resource_manager.slurm import PowerAwareScheduler, SchedulerConfig
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.workloads.synth import synthesize_replay_trace

N_NODES = 1024
N_TRACE_JOBS = 2000
N_REPLAY_JOBS = 2000
N_THROUGHPUT_JOBS = 10000
REPLAY_REPS = 3
N_RUNNING = 384
N_PENDING = 64
PASS_ROUNDS_SCALAR = 5
PASS_ROUNDS_VECTOR = 200
PARITY_TOLERANCE = 1e-9


def light_app(seconds: float, iterations: int = 1) -> SyntheticApplication:
    return SyntheticApplication(
        f"light_{seconds:.2f}x{iterations}",
        [make_phase("work", seconds, kind="compute", ref_threads=56)],
        n_iterations=iterations,
    )


def build_scheduler(scheduler_cls, seed: int = 17) -> PowerAwareScheduler:
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=N_NODES), seed=seed)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(), reserve_fraction=0.0
    )
    config = SchedulerConfig(scheduling_interval_s=10.0)
    return scheduler_cls(env, cluster, policies, config, RandomStreams(seed))


# -- frozen-state pass throughput ----------------------------------------------------


def freeze_state(scheduler: PowerAwareScheduler, rng: np.random.Generator):
    """Populate a realistic mid-campaign scheduler state without job sims."""
    node_cursor = 0
    for i in range(N_RUNNING):
        count = int(rng.integers(1, 4))
        nodes = scheduler.cluster.nodes[node_cursor:node_cursor + count]
        node_cursor += count
        job = Job(request=JobRequest(
            job_id=f"run-{i:04d}",
            application=light_app(60.0),
            nodes_requested=count,
            walltime_estimate_s=float(rng.uniform(300.0, 3600.0)),
        ))
        scheduler.jobs[job.job_id] = job
        scheduler._account_launch(job, list(nodes), budget_w=None, backfilled=False)
    pending = []
    # A head job too big for the remaining free nodes, then a backfill field.
    head = Job(request=JobRequest(
        job_id="pend-head",
        application=light_app(60.0),
        nodes_requested=N_NODES,
        walltime_estimate_s=3600.0,
    ))
    scheduler.jobs[head.job_id] = head
    scheduler.queue.push(head)
    pending.append(head)
    for i in range(N_PENDING - 1):
        job = Job(request=JobRequest(
            job_id=f"pend-{i:04d}",
            application=light_app(60.0),
            nodes_requested=int(rng.integers(1, 9)),
            walltime_estimate_s=float(rng.uniform(60.0, 1800.0)),
        ))
        scheduler.jobs[job.job_id] = job
        scheduler.queue.push(job)
        pending.append(job)
    return head, pending


def scheduler_pass(scheduler: PowerAwareScheduler, head: Job, pending) -> float:
    """One read-only scheduling decision pass (reservation + candidacy sweep)."""
    shadow = scheduler._shadow_time(head)
    fits = 0
    for job in pending[1:]:
        if scheduler._fits_now(job):
            fits += 1
    return shadow + fits


def time_passes(scheduler_cls, rounds: int) -> float:
    scheduler = build_scheduler(scheduler_cls)
    head, pending = freeze_state(scheduler, np.random.default_rng(5))
    scheduler_pass(scheduler, head, pending)  # warm caches
    # Per-round min, not mean: the pass is deterministic work, so
    # stragglers are scheduler/clock noise and inflate a mean — the
    # speedup ratio of two means is far noisier than of two mins.
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        scheduler_pass(scheduler, head, pending)
        best = min(best, time.perf_counter() - t0)
    return best


# -- end-to-end trace parity ---------------------------------------------------------


def make_trace(n_jobs: int, seed: int = 23):
    rng = np.random.default_rng(seed)
    requests = []
    t = 0.0
    for i in range(n_jobs):
        base = float(rng.uniform(40.0, 160.0))
        nodes = int(rng.choice([1, 2, 4, 8, 128], p=[0.3, 0.3, 0.2, 0.18, 0.02]))
        requests.append(JobRequest(
            job_id=f"job-{i:05d}",
            # Weak-scaled work (total demand grows with width) so wide jobs
            # hold their nodes: a few of them periodically block the FCFS
            # head while small tight-estimate jobs backfill around its
            # reservation.
            application=light_app(base * nodes),
            nodes_requested=nodes,
            walltime_estimate_s=base * 1.6 * float(rng.uniform(1.2, 2.0)),
            arrival_time_s=t,
        ))
        t += float(rng.exponential(1.1))
    return requests


def run_trace(scheduler_cls):
    scheduler = build_scheduler(scheduler_cls)
    scheduler.submit_trace(make_trace(N_TRACE_JOBS))
    t0 = time.perf_counter()
    stats = scheduler.run_until_complete()
    elapsed = time.perf_counter() - t0
    schedule = tuple(
        (job_id, job.start_time_s, job.end_time_s,
         tuple(n.node_id for n in job.assigned_nodes))
        for job_id, job in sorted(scheduler.jobs.items())
    )
    return schedule, stats, elapsed


# -- replay-trace throughput (event driver) ------------------------------------------


def make_replay_trace(n_jobs=N_REPLAY_JOBS):
    # A saturated small-job day: ~3.4 nodes/job mean (log-uniform 1..8),
    # 10-minute mean runtimes, arrivals on a 30 s quantum at ~0.99 of
    # cluster service capacity, so the queue stays busy and backfill
    # matters, but the trace still drains after the last arrival.
    return synthesize_replay_trace(
        n_jobs,
        seed=7,
        mean_interarrival_s=2.0,
        mean_runtime_s=600.0,
        max_nodes_per_job=8,
        arrival_quantum_s=30.0,
    )


def run_replay(scheduler_cls, seed: int = 17, n_jobs=N_REPLAY_JOBS):
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=N_NODES), seed=seed)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(), reserve_fraction=0.0
    )
    config = SchedulerConfig(
        scheduling_interval_s=10.0,
        monitor_interval_s=600.0,
        backfill_depth=100,
        runtime_factory=lambda job, budget, sched: RuntimeHooks(),
    )
    scheduler = scheduler_cls(env, cluster, policies, config, RandomStreams(seed))
    scheduler.submit_trace(make_replay_trace(n_jobs))
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        stats = scheduler.run_until_complete()
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    schedule = tuple(
        (job_id, job.start_time_s, job.end_time_s,
         tuple(n.node_id for n in job.assigned_nodes))
        for job_id, job in sorted(scheduler.jobs.items())
    )
    return schedule, stats, elapsed


def run_benchmark():
    # Headline throughput first, before the physics-trace sections churn
    # the heap: best of REPLAY_REPS event-driver runs over a
    # N_THROUGHPUT_JOBS window (~0.7 s timed region — wide enough that
    # single-core clock jitter stops dominating; the metric is
    # deterministic work / noisy wall clock, so min is the low-variance
    # estimator).  One untimed run first: the bench opens here, and an
    # idle core needs a second or two of sustained load before frequency
    # governors stop skewing the timed reps.
    run_replay(PowerAwareScheduler)
    throughput_elapsed = []
    for _ in range(REPLAY_REPS):
        _, stats_tp, elapsed = run_replay(
            PowerAwareScheduler, n_jobs=N_THROUGHPUT_JOBS
        )
        throughput_elapsed.append(elapsed)
    replay_wall_s = min(throughput_elapsed)

    scalar_pass_s = time_passes(ScalarScheduler, rounds=PASS_ROUNDS_SCALAR)
    vector_pass_s = time_passes(PowerAwareScheduler, rounds=PASS_ROUNDS_VECTOR)
    speedup = scalar_pass_s / vector_pass_s

    schedule_vec, stats_vec, elapsed_vec = run_trace(PowerAwareScheduler)
    schedule_sca, stats_sca, elapsed_sca = run_trace(ScalarScheduler)
    physics_identical = schedule_vec == schedule_sca
    stats_err = max(
        abs(a - b)
        for a, b in zip(stats_vec.as_dict().values(), stats_sca.as_dict().values())
    )

    # Three-way decision parity on the (cheap) N_REPLAY_JOBS trace:
    # event==interval and production==scalar, bit-identical schedules.
    sched_event, stats_event, _ = run_replay(PowerAwareScheduler)
    sched_interval, stats_interval, elapsed_interval = run_replay(
        IntervalDriverScheduler
    )
    sched_rescalar, _, _ = run_replay(ScalarScheduler)
    replay_parity = (
        sched_event == sched_interval
        and sched_event == sched_rescalar
        and stats_event.as_dict() == stats_interval.as_dict()
    )

    return {
        "n_nodes": N_NODES,
        "n_trace_jobs": N_TRACE_JOBS,
        "n_replay_jobs": N_REPLAY_JOBS,
        "n_running_frozen": N_RUNNING,
        "n_pending_frozen": N_PENDING,
        "scalar_pass_s": scalar_pass_s,
        "vector_pass_s": vector_pass_s,
        "speedup": speedup,
        "passes_per_sec": 1.0 / vector_pass_s,
        "trace_wall_s_vectorized": elapsed_vec,
        "trace_wall_s_scalar": elapsed_sca,
        "physics_jobs_per_wall_sec": stats_vec.jobs_completed / elapsed_vec,
        "trace_jobs_completed": stats_tp.jobs_completed,
        "n_throughput_jobs": N_THROUGHPUT_JOBS,
        "replay_wall_s_event": replay_wall_s,
        "replay_wall_s_interval": elapsed_interval,
        "trace_jobs_per_wall_sec": stats_tp.jobs_completed / replay_wall_s,
        "ordering_identical": physics_identical and replay_parity,
        "stats_max_abs_err": stats_err,
        "backfilled_jobs": stats_vec.backfilled_jobs,
        "replay_backfilled_jobs": stats_event.backfilled_jobs,
    }


def test_perf_scheduler_scale(benchmark):
    stats = run_once(benchmark, run_benchmark)
    banner(
        f"Perf: vectorized scheduling core — {N_NODES} nodes, "
        f"{N_RUNNING} running / {N_PENDING} queued frozen state, "
        f"{N_TRACE_JOBS}-job trace parity"
    )
    print(
        f"scheduler pass: scalar {stats['scalar_pass_s'] * 1e3:.2f} ms | vectorized "
        f"{stats['vector_pass_s'] * 1e3:.3f} ms | speedup {stats['speedup']:.1f}x "
        f"({stats['passes_per_sec']:,.0f} passes/sec)"
    )
    print(
        f"physics trace: vectorized {stats['trace_wall_s_vectorized']:.1f} s wall "
        f"({stats['physics_jobs_per_wall_sec']:,.0f} jobs/sec), scalar "
        f"{stats['trace_wall_s_scalar']:.1f} s wall; "
        f"{stats['backfilled_jobs']:.0f} backfills"
    )
    print(
        f"replay trace: event driver {stats['replay_wall_s_event']:.2f} s wall "
        f"for {N_THROUGHPUT_JOBS} jobs ({stats['trace_jobs_per_wall_sec']:,.0f} "
        f"jobs/sec, best of {REPLAY_REPS}); parity trace interval driver "
        f"{stats['replay_wall_s_interval']:.2f} s; "
        f"{stats['replay_backfilled_jobs']:.0f} backfills"
    )
    print(
        f"parity: ordering identical = {stats['ordering_identical']}, "
        f"stats max |err| = {stats['stats_max_abs_err']:.2e}"
    )
    path = record_perf("scheduler_scale", {k: stats[k] for k in sorted(stats)})
    print(f"recorded -> {path}")

    assert stats["ordering_identical"]
    assert stats["stats_max_abs_err"] <= PARITY_TOLERANCE
    assert stats["speedup"] >= 5.0
    # ISSUE 9 acceptance: >= 50x the recorded PR-3 interval/physics
    # baseline of 231.53 jobs per wall-second.
    assert stats["trace_jobs_per_wall_sec"] >= 50 * 231.53
