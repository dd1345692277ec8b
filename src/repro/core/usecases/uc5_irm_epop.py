"""Use case 5 (§3.2.5, Figure 6): IRM + EPOP power-corridor management.

A workload of long-running, mostly malleable jobs is pushed through the
invasive resource manager under a site power corridor.  The same trace
is replayed under different corridor-enforcement strategies — none
(uncontrolled), static power capping, DVFS, and the invasive dynamic
node redistribution — and the resulting system power traces are scored
against the corridor (violation fraction, shrink/expand events), which
is the quantitative version of Figure 6.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.generator import JobRequest
from repro.experiments.registry import register_use_case
from repro.experiments.shared import make_cluster
from repro.resource_manager.irm import CorridorStrategy, InvasiveResourceManager
from repro.resource_manager.policies import SitePolicies
from repro.resource_manager.slurm import SchedulerConfig
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams

__all__ = ["run_use_case", "make_malleable_workload", "run_strategy"]


def make_malleable_workload(
    n_jobs: int = 6,
    iterations: int = 60,
    seed: int = 6,
    interarrival_s: float = 90.0,
) -> List[JobRequest]:
    """Long-running malleable jobs (EPOP-style phase loops)."""
    streams = RandomStreams(seed)
    rng = streams.stream("uc5.workload")
    requests: List[JobRequest] = []
    time = 0.0
    for i in range(n_jobs):
        phases = [
            make_phase("advance", float(rng.uniform(2.0, 5.0)), kind="mixed", ref_threads=56),
            make_phase("exchange", float(rng.uniform(0.3, 0.8)), kind="mpi",
                       comm_fraction=0.6, ref_threads=56),
        ]
        app = SyntheticApplication(
            f"epop_app_{i}", phases, n_iterations=iterations, rank_multiple=1
        )
        nodes = int(rng.choice([2, 4]))
        requests.append(
            JobRequest(
                job_id=f"epop-{i:03d}",
                application=app,
                nodes_requested=nodes,
                nodes_min=1,
                nodes_max=8,
                walltime_estimate_s=3600.0,
                malleable=True,
                arrival_time_s=time,
                user=f"user{i % 3}",
            )
        )
        time += float(rng.exponential(interarrival_s))
    return requests


def run_strategy(
    strategy: CorridorStrategy,
    workload: Sequence[JobRequest],
    n_nodes: int = 16,
    corridor: Optional[tuple] = None,
    seed: int = 6,
    control_interval_s: float = 20.0,
) -> Dict[str, Any]:
    """Replay the workload under one corridor-enforcement strategy."""
    cluster = make_cluster(n_nodes, seed)
    env = Environment()
    lower, upper = corridor if corridor is not None else (None, None)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(),
        corridor_lower_w=lower,
        corridor_upper_w=upper,
        averaging_window_s=60.0,
    )
    irm = InvasiveResourceManager(
        env,
        cluster,
        policies,
        SchedulerConfig(scheduling_interval_s=10.0, monitor_interval_s=5.0),
        RandomStreams(seed),
        strategy=strategy,
        control_interval_s=control_interval_s,
    )
    irm.submit_trace(list(workload))
    stats = irm.run_until_complete()
    report = irm.corridor_report()
    trace = irm.power_series
    return {
        "strategy": strategy.value,
        "stats": stats.as_dict(),
        "corridor_report": report,
        "power_trace": list(zip(trace.times.tolist(), trace.values.tolist())),
        "events": [
            {"time_s": e.time_s, "action": e.action, "job": e.job_id, **e.detail}
            for e in irm.events
        ],
    }


@register_use_case(
    "uc5",
    description="IRM + EPOP: corridor enforcement strategies on a malleable workload",
    objective_metric="violation_fractions.invasive",
    minimize=True,
)
def run_use_case(
    n_nodes: int = 16,
    n_jobs: int = 6,
    iterations: int = 50,
    seed: int = 6,
    strategies: Sequence[CorridorStrategy] = (
        CorridorStrategy.NONE,
        CorridorStrategy.POWER_CAPPING,
        CorridorStrategy.DVFS,
        CorridorStrategy.INVASIVE,
    ),
) -> Dict[str, Any]:
    """Compare corridor-enforcement strategies on the same malleable workload."""
    workload = make_malleable_workload(n_jobs=n_jobs, iterations=iterations, seed=seed)
    # Derive a corridor from the uncontrolled run so it is genuinely binding:
    # upper bound below the uncontrolled peak, lower bound above idle.
    baseline = run_strategy(CorridorStrategy.NONE, workload, n_nodes=n_nodes, seed=seed)
    peak = baseline["corridor_report"].get("max_power_w") if "max_power_w" in baseline[
        "corridor_report"
    ] else None
    peak = peak or max(p for _, p in baseline["power_trace"])
    idle = min(p for _, p in baseline["power_trace"])
    corridor = (idle + 0.35 * (peak - idle), idle + 0.8 * (peak - idle))

    results: Dict[str, Any] = {"corridor": corridor, "runs": {}}
    for strategy in strategies:
        results["runs"][strategy.value] = run_strategy(
            strategy, workload, n_nodes=n_nodes, corridor=corridor, seed=seed
        )
    fractions = {
        name: run["corridor_report"].get("violation_fraction", 1.0)
        for name, run in results["runs"].items()
    }
    results["violation_fractions"] = fractions
    if CorridorStrategy.NONE.value in fractions and CorridorStrategy.INVASIVE.value in fractions:
        results["invasive_improves_compliance"] = (
            fractions[CorridorStrategy.INVASIVE.value]
            <= fractions[CorridorStrategy.NONE.value] + 1e-9
        )
    return results
