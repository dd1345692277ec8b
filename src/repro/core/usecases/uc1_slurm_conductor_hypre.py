"""Use case 1 (§3.2.1): co-tuning SLURM, Conductor and Hypre.

The experiment has two parts, mirroring the paper's two target metrics:

1. **Runtime-system level (IPC/W, runtime).**  A sweep over Hypre
   solver/preconditioner configurations run under Conductor, once with
   no hardware power constraint and once under a per-node power budget.
   The key observation to reproduce: the configuration that wins
   unconstrained is *not* the winner under the power cap.

2. **Resource-manager level (jobs/hour).**  A co-tuning run where the
   cross-layer search jointly picks the Hypre parameters (application
   layer), the Conductor parameters (runtime layer) and the node count
   (RM layer) under a job power budget, compared against tuning the
   application alone with the other layers at their defaults.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.apps.hypre import HypreLaplacian
from repro.apps.mpi import MpiJobSimulator
from repro.core.cotuner import CoTuner
from repro.core.objectives import make_objective
from repro.core.space import ParameterSpace
from repro.experiments.registry import register_use_case
from repro.experiments.shared import fresh_nodes, make_cluster
from repro.hardware.cluster import Cluster
from repro.runtime.conductor import ConductorRuntime
from repro.sim.rng import RandomStreams

__all__ = ["run_use_case", "hypre_sweep", "cotune_hypre_conductor_rm"]


def hypre_sweep(
    cluster: Cluster,
    nodes_per_job: int = 4,
    per_node_budget_w: Optional[float] = 280.0,
    seed: int = 1,
) -> List[Dict[str, Any]]:
    """Evaluate representative Hypre configurations with and without a cap."""
    app = HypreLaplacian()
    configs = [
        {"solver": "PCG", "preconditioner": "BoomerAMG", "smoother": "hybrid-GS"},
        {"solver": "PCG", "preconditioner": "BoomerAMG", "smoother": "Chebyshev"},
        {"solver": "GMRES", "preconditioner": "BoomerAMG", "coarsening": "HMIS"},
        {"solver": "PCG", "preconditioner": "ParaSails"},
        {"solver": "BiCGSTAB", "preconditioner": "ParaSails"},
        {"solver": "BiCGSTAB", "preconditioner": "Euclid"},
        {"solver": "PCG", "preconditioner": "Jacobi"},
    ]
    rows: List[Dict[str, Any]] = []
    for index, config in enumerate(configs):
        row: Dict[str, Any] = {"config": dict(config)}
        for label, cap in (("uncapped", None), ("capped", per_node_budget_w)):
            nodes = fresh_nodes(cluster, nodes_per_job, cap_w=cap)
            runtime = ConductorRuntime(
                power_budget_w=cap * nodes_per_job if cap is not None else None
            )
            # Use the same job_id for both labels so the capped and the
            # uncapped run of one configuration see identical load-imbalance
            # noise: the only difference between the two rows is the cap.
            result = MpiJobSimulator.evaluate(
                nodes,
                app,
                config,
                hooks=runtime,
                streams=RandomStreams(seed + index),
                job_id=f"uc1-{index}",
                static_imbalance=0.1,
            )
            row[label] = {
                "runtime_s": result.runtime_s,
                "energy_j": result.energy_j,
                "power_w": result.average_power_w,
                "ipc_per_watt": result.ipc_per_watt,
            }
        rows.append(row)
    return rows


def cotune_hypre_conductor_rm(
    cluster: Cluster,
    per_node_budget_w: Optional[float] = 280.0,
    max_evals: int = 30,
    seed: int = 1,
) -> Dict[str, Any]:
    """Co-tune application + runtime + RM node count under a power budget."""
    streams = RandomStreams(seed)

    app_space = ParameterSpace.from_dict(
        {
            "solver": ["PCG", "GMRES", "BiCGSTAB"],
            "preconditioner": ["BoomerAMG", "ParaSails", "Euclid", "Jacobi"],
            "strong_threshold": [0.25, 0.5, 0.7, 0.9],
        },
        layer="application",
        name="hypre",
    )
    runtime_space = ParameterSpace.from_dict(
        {"rebalance_interval": [1, 2, 4], "step_fraction": [0.1, 0.25, 0.5]},
        layer="runtime",
        name="conductor",
    )
    rm_space = ParameterSpace.from_dict(
        {"nodes": [2, 4, 8]}, layer="system", name="rm"
    )

    evaluations = {"count": 0}

    def evaluate(nested: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
        node_count = int(nested["system"]["nodes"])
        nodes = fresh_nodes(cluster, node_count, cap_w=per_node_budget_w)
        runtime = ConductorRuntime(
            power_budget_w=(
                per_node_budget_w * node_count
                if per_node_budget_w is not None
                else None
            ),
            rebalance_interval=int(nested["runtime"]["rebalance_interval"]),
            step_fraction=float(nested["runtime"]["step_fraction"]),
        )
        evaluations["count"] += 1
        result = MpiJobSimulator.evaluate(
            nodes,
            HypreLaplacian(),
            nested["application"],
            hooks=runtime,
            streams=streams.spawn(f"uc1-cotune-{evaluations['count']}"),
            job_id=f"uc1-cotune-{evaluations['count']}",
            static_imbalance=0.1,
        )
        metrics = result.metrics()
        # Job throughput at the RM level: how many such jobs fit per hour on
        # the whole cluster, given the node count this configuration uses.
        concurrent = max(1, len(cluster) // node_count)
        metrics["throughput_jobs_per_hour"] = (
            concurrent * 3600.0 / metrics["runtime_s"] if metrics["runtime_s"] > 0 else 0.0
        )
        return metrics

    cotuner = CoTuner(
        layer_spaces={"application": app_space, "runtime": runtime_space, "system": rm_space},
        evaluator=evaluate,
        objective=make_objective("throughput"),
        search="forest",
        max_evals=max_evals,
        seed=seed,
        name="uc1",
    )
    result = cotuner.run()
    return {
        "best_by_layer": result.best_by_layer,
        "best_metrics": result.best_metrics,
        "evaluations": result.tuning.evaluations,
    }


@register_use_case(
    "uc1",
    description="SLURM + Conductor + Hypre: capped-vs-uncapped sweep and cross-layer co-tuning",
    budget_param="per_node_budget_w",
    objective_metric="cotuned.best_metrics.throughput_jobs_per_hour",
    minimize=False,
)
def run_use_case(
    n_nodes: int = 8,
    per_node_budget_w: Optional[float] = 280.0,
    max_evals: int = 25,
    seed: int = 1,
) -> Dict[str, Any]:
    """Run the full use case; returns sweep rows, winners, and co-tuning result."""
    cluster = make_cluster(n_nodes, seed)
    sweep = hypre_sweep(cluster, nodes_per_job=min(4, n_nodes), per_node_budget_w=per_node_budget_w, seed=seed)

    def best(rows: List[Dict[str, Any]], key: str) -> Dict[str, Any]:
        return min(rows, key=lambda r: r[key]["runtime_s"])

    best_uncapped = best(sweep, "uncapped")
    best_capped = best(sweep, "capped")
    cotuned = cotune_hypre_conductor_rm(
        cluster, per_node_budget_w=per_node_budget_w, max_evals=max_evals, seed=seed
    )
    return {
        "sweep": sweep,
        "best_uncapped_config": best_uncapped["config"],
        "best_capped_config": best_capped["config"],
        "best_configs_differ": best_uncapped["config"] != best_capped["config"],
        "cotuned": cotuned,
        "per_node_budget_w": per_node_budget_w,
    }
