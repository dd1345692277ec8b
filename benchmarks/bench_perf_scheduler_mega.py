"""Perf — mega-scale trace replay: 16k nodes, 100k jobs, one process.

The paper's headline experiments sweep cluster-level schedulers across
tens of thousands of nodes and week-long workloads.  Before PR 9 the
simulator could not touch that regime: the interval driver burned a
scheduler pass every 10 simulated seconds whether or not anything could
change, and every job cost a handful of DES events plus full package
physics.  The event-driven engine (idle fast-forward, O(schedulable)
passes, one-timeout replay jobs) makes the regime routine — this
benchmark pins that claim in CI.

One run: a 16,384-node cluster ingests a 100,000-job synthetic
replay trace (log-uniform widths 1..64, 10-minute mean runtimes,
arrivals on a 30 s quantum at ~0.9 of service capacity) and drains it
to completion under the event driver.  Records end-to-end wall time,
jobs per wall-second (regression-guarded) and the simulated-to-wall
time ratio; asserts the whole thing fits a CI wall budget.
"""

import gc
import time

from conftest import banner, record_perf, run_once

from repro.apps.mpi import RuntimeHooks
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.resource_manager.policies import SitePolicies
from repro.resource_manager.slurm import PowerAwareScheduler, SchedulerConfig
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.workloads.synth import synthesize_replay_trace

N_NODES = 16384
N_JOBS = 100_000
WALL_BUDGET_S = 300.0
MIN_JOBS_PER_SEC = 2000.0


def run_benchmark():
    trace = synthesize_replay_trace(
        N_JOBS,
        seed=11,
        # ~15.1 nodes/job mean (log-uniform 1..64) at 10-minute mean
        # runtimes: 0.68 s interarrivals put the offered load at ~0.9
        # of the 16k-node service capacity.
        mean_interarrival_s=0.68,
        mean_runtime_s=600.0,
        max_nodes_per_job=64,
        arrival_quantum_s=30.0,
    )
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=N_NODES), seed=17)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(), reserve_fraction=0.0
    )
    config = SchedulerConfig(
        scheduling_interval_s=10.0,
        monitor_interval_s=3600.0,
        backfill_depth=100,
        runtime_factory=lambda job, budget, sched: RuntimeHooks(),
    )
    scheduler = PowerAwareScheduler(env, cluster, policies, config, RandomStreams(17))
    scheduler.submit_trace(trace)
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
    return {
        "n_nodes": N_NODES,
        "n_jobs": N_JOBS,
        "wall_s": elapsed,
        "sim_horizon_s": env.now,
        "sim_s_per_wall_s": env.now / elapsed,
        "jobs_completed": stats.jobs_completed,
        "trace_jobs_per_wall_sec": stats.jobs_completed / elapsed,
        "backfilled_jobs": stats.backfilled_jobs,
        "mean_wait_s": stats.mean_wait_s,
        "utilization": stats.node_utilization,
    }


def test_perf_scheduler_mega(benchmark):
    stats = run_once(benchmark, run_benchmark)
    banner(
        f"Perf: mega-scale event-driven replay — {N_NODES:,} nodes, "
        f"{N_JOBS:,} jobs"
    )
    print(
        f"drained {stats['jobs_completed']:,.0f} jobs in {stats['wall_s']:.1f} s "
        f"wall ({stats['trace_jobs_per_wall_sec']:,.0f} jobs/sec); "
        f"{stats['backfilled_jobs']:,.0f} backfills"
    )
    print(
        f"simulated horizon {stats['sim_horizon_s'] / 3600:.1f} h at "
        f"{stats['sim_s_per_wall_s']:,.0f} sim-seconds per wall-second; "
        f"utilization {stats['utilization']:.2f}, "
        f"mean wait {stats['mean_wait_s']:.0f} s"
    )
    path = record_perf("scheduler_mega", {k: stats[k] for k in sorted(stats)})
    print(f"recorded -> {path}")

    assert stats["jobs_completed"] == N_JOBS
    assert stats["wall_s"] <= WALL_BUDGET_S
    assert stats["trace_jobs_per_wall_sec"] >= MIN_JOBS_PER_SEC
