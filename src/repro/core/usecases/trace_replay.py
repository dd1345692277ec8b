"""Workload-trace replay: mega-scale scheduling studies as a use case.

The paper's cluster-level scenarios (queue dynamics, EASY backfill,
power-aware admission) are functions of the *workload*, not of any
co-tuner.  This use case replays a workload trace — a Standard Workload
Format log or a deterministic synthetic trace, named by a
:mod:`~repro.workloads.spec` string — through the power-aware scheduler
under the PR-9 event-driven engine, and reports the scheduling outcome
(waits, utilization, backfills, makespan).  Jobs run as
:class:`~repro.workloads.replay.TraceReplayApplication` one-timeout
replays, so campaigns can sweep 16k–65k-node clusters and 100k+-job
traces per run.

Campaign usage::

    python -m repro.experiments run --uc trace \\
        --workload synth:n_jobs=100000,mean_interarrival_s=0.68,mean_runtime_s=600,max_nodes_per_job=64,arrival_quantum_s=30 \\
        --param trace.n_nodes=16384
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps.mpi import RuntimeHooks
from repro.experiments.registry import register_use_case, run_registered
from repro.experiments.shared import make_cluster
from repro.resource_manager.policies import SitePolicies
from repro.resource_manager.slurm import PowerAwareScheduler, SchedulerConfig
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.workloads.spec import workload_requests

__all__ = ["run_use_case"]

_DEFAULT_WORKLOAD = (
    "synth:n_jobs=2000,mean_interarrival_s=2.0,mean_runtime_s=600.0,"
    "max_nodes_per_job=8,arrival_quantum_s=30.0"
)


def _bare_runtime(job, budget, scheduler) -> RuntimeHooks:
    """Replay jobs have no interior phases for a runtime to steer."""
    return RuntimeHooks()


@register_use_case(
    "trace",
    description="workload-trace replay: SWF or synthetic traces at mega scale",
    objective_metric="stats.mean_wait_s",
    minimize=True,
)
def experiment(
    seed: int = 1,
    n_nodes: int = 1024,
    workload: str = _DEFAULT_WORKLOAD,
    monitor_interval_s: float = 600.0,
    backfill_depth: int = 100,
    reserve_fraction: float = 0.0,
) -> Dict[str, Any]:
    """Replay one workload trace through the event-driven scheduler."""
    requests = workload_requests(workload, seed=seed)
    env = Environment()
    cluster = make_cluster(n_nodes, seed)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(),
        reserve_fraction=reserve_fraction,
    )
    config = SchedulerConfig(
        scheduling_interval_s=10.0,
        monitor_interval_s=monitor_interval_s,
        backfill_depth=backfill_depth,
        runtime_factory=_bare_runtime,
    )
    scheduler = PowerAwareScheduler(env, cluster, policies, config, RandomStreams(seed))
    scheduler.submit_trace(requests)
    stats = scheduler.run_until_complete()
    return {
        "workload": workload,
        "n_nodes": n_nodes,
        "n_jobs": len(requests),
        "sim_horizon_s": env.now,
        "stats": stats.as_dict(),
    }


def run_use_case(
    seed: int = 1,
    n_nodes: int = 1024,
    workload: str = _DEFAULT_WORKLOAD,
    monitor_interval_s: float = 600.0,
    backfill_depth: int = 100,
    reserve_fraction: float = 0.0,
) -> Dict[str, Any]:
    """Thin shim over the registered ``trace`` campaign runner."""
    return run_registered(
        "trace",
        seed=seed,
        n_nodes=n_nodes,
        workload=workload,
        monitor_interval_s=monitor_interval_s,
        backfill_depth=backfill_depth,
        reserve_fraction=reserve_fraction,
    )
