"""``sched_contended``: a site scheduler draining a contended trace.

An in-process ``PowerAwareScheduler`` (event driver, bounded
``backfill_depth``) drains a 6,000-job ``synthesize_replay_trace`` trace
offered at about 1.4x the capacity of 512 nodes, so the queue runs over
a thousand deep and EASY backfill has work to do.  Budgets come from the
default proportional policy with the site budget below total TDP.
Replay jobs skip the package physics and no control plane is involved:
scheduling passes and ``_plan_launch`` over a deep queue dominate.

One unit is one drain of a freshly built scheduler; every drain of a run
replays the same trace.  The operation whose latency is reported is one
scheduling pass, timed by a two-clock-read wrapper on the instance.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Optional

import numpy as np

from common import HostSpeed, Measurement, Unit, pct, pooled, run_units

N_NODES = 512
N_JOBS = 6000
#: ~14.7 nodes/job (log-uniform 1..64) x ~600 s runtimes at 12.4 s mean
#: interarrival offers ~1.4x the node-seconds of TRACE_NODES nodes; other
#: machine sizes scale the interarrival to keep that load.
TRACE_NODES = 512
TRACE = dict(mean_interarrival_s=12.4, mean_runtime_s=600.0, max_nodes_per_job=64,
             arrival_quantum_s=30.0)
#: Site budget as a share of total TDP (below 1: budgets bind the policy).
BUDGET_SHARE = 0.85
BACKFILL_DEPTH = 100
#: Fewest jobs that must wait at once for the drain to count as contended.
PEAK_QUEUE_MIN = 1000

#: A fixed small drain whose decisions are pinned: any change to what the
#: scheduler decides changes this digest.
REFERENCE = dict(n_nodes=256, n_jobs=2000, seed=0)
REFERENCE_DIGEST = "7d909e10aeecda2ea76b0a9e4242f8283516c5f1ffdbcfff5b1b5fd52465ba24"


def build(seed: int, n_nodes: Optional[int] = None, n_jobs: Optional[int] = None) -> Any:
    """Trace, cluster and scheduler with the trace submitted (not yet run)."""
    import repro.workloads.synth as synth
    from repro.apps.mpi import RuntimeHooks
    from repro.hardware.cluster import Cluster, ClusterSpec
    from repro.resource_manager.policies import SitePolicies
    from repro.resource_manager.slurm import PowerAwareScheduler, SchedulerConfig
    from repro.sim.engine import Environment
    from repro.sim.rng import RandomStreams

    n_nodes = N_NODES if n_nodes is None else n_nodes
    n_jobs = N_JOBS if n_jobs is None else n_jobs
    scale = TRACE_NODES / n_nodes
    trace = synth.synthesize_replay_trace(
        n_jobs, seed=seed,
        **dict(TRACE, mean_interarrival_s=TRACE["mean_interarrival_s"] * scale),
    )
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes), seed=seed)
    policies = SitePolicies(system_power_budget_w=BUDGET_SHARE * cluster.total_tdp_w())
    config = SchedulerConfig(
        driver="event",
        monitor_interval_s=3600.0,
        backfill_depth=BACKFILL_DEPTH,
        runtime_factory=lambda job, budget, scheduler: RuntimeHooks(),
    )
    scheduler = PowerAwareScheduler(Environment(), cluster, policies, config,
                                    RandomStreams(seed))
    scheduler.submit_trace(trace)
    return scheduler


def probe(seed: int) -> None:
    build(seed)


def schedule_digest(scheduler: Any) -> str:
    """sha256 over every job's start time and node set, in job-id order."""
    digest = hashlib.sha256()
    for job_id in sorted(scheduler.jobs):
        job = scheduler.jobs[job_id]
        nodes = ",".join(str(node.node_id) for node in job.assigned_nodes)
        digest.update(f"{job_id}:{job.start_time_s!r}:{nodes};".encode())
    return digest.hexdigest()


def peak_queue_depth(scheduler: Any) -> int:
    """Most jobs ever waiting at a pass: arrived by t minus started before t."""
    jobs = list(scheduler.jobs.values())
    submits = np.sort([job.submit_time_s for job in jobs])
    starts = np.sort([job.start_time_s for job in jobs if job.start_time_s is not None])
    times = np.unique(submits)
    waiting = (np.searchsorted(submits, times, side="right")
               - np.searchsorted(starts, times, side="left"))
    return int(waiting.max()) if waiting.size else 0


def reference_digest() -> str:
    scheduler = build(REFERENCE["seed"], REFERENCE["n_nodes"], REFERENCE["n_jobs"])
    scheduler.run_until_complete()
    return schedule_digest(scheduler)


def measure(seed: int, seconds: float, tracer: Any = None) -> Measurement:
    units: List[Unit] = []
    speed = HostSpeed()
    totals = {"jobs": 0, "passes": 0, "backfills": 0}
    digests: List[str] = []
    checks: Dict[str, bool] = {}

    def drain(index: int) -> None:
        scheduler = build(seed)
        inner = scheduler._schedule
        clock = time.perf_counter
        probe, record = speed.probe, speed.record

        def timed_pass() -> None:
            start = clock()
            inner()
            record("pass", (clock() - start) * 1e6)
            probe()

        scheduler._schedule = timed_pass
        speed.start()
        start = time.perf_counter()
        stats = scheduler.run_until_complete()
        wall, latencies = speed.finish(time.perf_counter() - start)
        digests.append(schedule_digest(scheduler))
        if tracer is not None:  # per traced unit, the warm-up included
            tracer.count("resource_manager.backfills", stats.backfilled_jobs)
        if index > 0:
            passes = latencies["pass"]
            units.append(Unit(stats.jobs_completed, wall, passes))
            totals["jobs"] += stats.jobs_completed
            totals["passes"] += len(passes)
            totals["backfills"] += stats.backfilled_jobs
        else:
            checks["jobs_completed_equals_n_jobs"] = stats.jobs_completed == N_JOBS
            checks["backfilled_jobs_positive"] = stats.backfilled_jobs > 0
            checks[f"peak_queue_depth_ge_{PEAK_QUEUE_MIN}"] = (
                peak_queue_depth(scheduler) >= PEAK_QUEUE_MIN)

    n = run_units(seconds, drain)
    checks["same_schedule_every_drain"] = len(set(digests)) == 1
    if tracer is None:  # the reference drain would count in the traced layers
        checks["reference_digest_matches"] = reference_digest() == REFERENCE_DIGEST
    rate, completed, passes, _ = pooled(units)
    return Measurement(
        latencies_us=passes,
        rate=rate,
        completed=completed,
        units=n,
        attempted=n * N_JOBS,
        failed=n * N_JOBS - totals["jobs"],
        checks=checks,
        named={
            "sched_jobs_per_s": (rate, "1/s", completed),
            "pass_p50_us": (pct(passes, 50), "us", len(passes)),
        },
        counts={"passes": totals["passes"] / n, "backfills": totals["backfills"] / n},
        digest=digests[0],
    )
