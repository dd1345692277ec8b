"""Use case 2 (§3.2.2): co-tuning SLURM and GEOPM.

Two experiments:

1. **Agent comparison on one imbalanced job.**  The same multi-node job
   is run under each GEOPM agent with the same job-level power budget;
   the power balancer should beat the static power governor on runtime
   (it steers power toward the critical path) and the energy-efficient
   agent should cut energy at a bounded runtime cost.

2. **Site policy filtering (the Figure 3 flow).**  A small job mix is
   run through the power-aware scheduler under each of GEOPM's three
   site-policy modes (static site-wide, job-specific from a history
   database, dynamic via the endpoint), recording the policy each job
   was launched with and the system-level outcome.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.generator import WorkloadGenerator
from repro.apps.mpi import MpiJobSimulator
from repro.core.stack import PowerStack, PowerStackConfig
from repro.experiments.registry import register_use_case
from repro.experiments.shared import make_cluster
from repro.hardware.cluster import ClusterSpec
from repro.resource_manager.policies import GeopmPolicyMode, SitePolicies
from repro.resource_manager.slurm import SchedulerConfig
from repro.runtime.geopm import GeopmPolicy, GeopmRuntime
from repro.sim.rng import RandomStreams

__all__ = ["run_use_case", "agent_comparison", "policy_mode_comparison"]


def _imbalanced_app(n_iterations: int = 20) -> SyntheticApplication:
    phases = [
        make_phase("compute", 1.2, kind="compute", ref_threads=56),
        make_phase("stream_update", 0.5, kind="memory", ref_threads=56),
        make_phase("exchange", 0.15, kind="mpi", comm_fraction=0.7, ref_threads=56),
    ]
    return SyntheticApplication("imbalanced_compute", phases, n_iterations=n_iterations)


def agent_comparison(
    n_nodes: int = 4,
    per_node_budget_w: Optional[float] = 280.0,
    seed: int = 2,
    n_iterations: int = 20,
) -> List[Dict[str, Any]]:
    """Run the same job under each GEOPM agent with the same budget."""
    app = _imbalanced_app(n_iterations)
    rows: List[Dict[str, Any]] = []
    for agent in ("monitor", "power_governor", "power_balancer", "energy_efficient"):
        cluster = make_cluster(n_nodes, seed)
        nodes = cluster.nodes[:n_nodes]
        # Production default: the performance governor (max frequency).  The
        # energy-efficient agent walks down from there; the power agents cap it.
        cluster.state.set_node_frequencies(cluster.spec.node.cpu.freq_max_ghz)
        budget = (
            per_node_budget_w * n_nodes
            if agent != "monitor" and per_node_budget_w is not None
            else None
        )
        policy = GeopmPolicy(agent=agent, power_budget_w=budget, perf_degradation=0.1)
        runtime = GeopmRuntime(policy=policy)
        # A deterministic, linearly spread decomposition imbalance so every
        # agent faces the same (substantial) load-imbalance pattern.
        skew = {
            node.hostname: 1.0 + 0.35 * index / max(1, n_nodes - 1)
            for index, node in enumerate(nodes)
        }
        result = MpiJobSimulator.evaluate(
            nodes,
            app,
            {},
            hooks=runtime,
            streams=RandomStreams(seed),
            static_imbalance=0.0,
            imbalance_sigma=0.02,
            static_skew=skew,
            job_id="uc2-agent-comparison",
        )
        rows.append(
            {
                "agent": agent,
                "runtime_s": result.runtime_s,
                "energy_j": result.energy_j,
                "power_w": result.average_power_w,
                "mpi_wait_s": result.mpi_wait_s,
                "report": runtime.report(),
            }
        )
    return rows


def policy_mode_comparison(
    n_nodes: int = 8, n_jobs: int = 8, seed: int = 3
) -> List[Dict[str, Any]]:
    """Run a job mix under each GEOPM site-policy mode (Figure 3)."""
    rows: List[Dict[str, Any]] = []
    workload = WorkloadGenerator(
        RandomStreams(seed), mean_interarrival_s=60.0, max_nodes_per_job=max(2, n_nodes // 2)
    ).generate(n_jobs)
    for mode in GeopmPolicyMode:
        policies = SitePolicies(
            system_power_budget_w=n_nodes * 400.0,
            geopm_mode=mode,
            default_geopm_policy=GeopmPolicy(agent="power_balancer"),
        )
        stack = PowerStack(
            PowerStackConfig(
                cluster=ClusterSpec(n_nodes=n_nodes),
                policies=policies,
                scheduler=SchedulerConfig(scheduling_interval_s=10.0),
                seed=seed,
            )
        )
        run = stack.run_workload(workload)
        assignments = {
            job_id: {
                "agent": job.launch_metadata.get("geopm_agent"),
                "budget_w": job.launch_metadata.get("power_budget_w"),
                "source": job.launch_metadata.get("geopm_source"),
            }
            for job_id, job in run.scheduler.jobs.items()
        }
        rows.append(
            {
                "mode": mode.value,
                "metrics": run.metrics(),
                "assignments": assignments,
            }
        )
    return rows


@register_use_case(
    "uc2",
    description="SLURM + GEOPM: agent comparison under one budget and site-policy modes",
    budget_param="per_node_budget_w",
    objective_metric="balancer_speedup_over_governor",
    minimize=False,
)
def run_use_case(
    n_nodes: int = 4,
    per_node_budget_w: Optional[float] = 280.0,
    seed: int = 2,
    n_iterations: int = 20,
    include_policy_modes: bool = True,
) -> Dict[str, Any]:
    """Run the SLURM + GEOPM use case."""
    agents = agent_comparison(
        n_nodes=n_nodes,
        per_node_budget_w=per_node_budget_w,
        seed=seed,
        n_iterations=n_iterations,
    )
    by_agent = {row["agent"]: row for row in agents}
    governor = by_agent["power_governor"]
    balancer = by_agent["power_balancer"]
    speedup = (
        governor["runtime_s"] / balancer["runtime_s"] - 1.0
        if balancer["runtime_s"] > 0
        else 0.0
    )
    result: Dict[str, Any] = {
        "agents": agents,
        "balancer_speedup_over_governor": speedup,
        "energy_saving_energy_efficient": 1.0
        - by_agent["energy_efficient"]["energy_j"] / by_agent["monitor"]["energy_j"],
    }
    if include_policy_modes:
        result["policy_modes"] = policy_mode_comparison(seed=seed)
    return result
