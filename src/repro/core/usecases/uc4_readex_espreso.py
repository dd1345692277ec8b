"""Use case 4 (§3.2.4, Figure 5): READEX/MERIC tuning of the ESPRESO FETI solver.

Design-time analysis sweeps hardware configurations (core/uncore
frequency) and application tuning parameters (solver, preconditioner,
domain size — with ATP dependency constraints), builds the tuning model,
and the production run replays the best configuration per region.  The
experiment compares:

* the **default** run (base frequencies, default application parameters),
* the **best static** configuration (one global hardware setting), and
* the **READEX dynamic** run (per-region settings from the tuning model),

on runtime and energy — per-region tuning should save energy beyond the
best static setting because the FETI regions have different characters
(factorisation is compute-bound, the CG loop is memory/communication
bound).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.apps.espreso import EspresoFeti
from repro.apps.mpi import MpiJobSimulator
from repro.experiments.registry import register_use_case
from repro.experiments.shared import fresh_nodes, make_cluster
from repro.hardware.cluster import Cluster
from repro.runtime.meric import MericRuntime, RegionConfig
from repro.runtime.readex import AtpConstraint, AtpParameter, ReadexTuner
from repro.sim.rng import RandomStreams

__all__ = ["run_use_case", "design_time_analysis"]


def design_time_analysis(
    cluster: Cluster,
    n_nodes: int = 2,
    objective: str = "energy_j",
    seed: int = 5,
    with_atp: bool = True,
):
    """Run the READEX design-time analysis and return the tuning model."""
    nodes = fresh_nodes(cluster, n_nodes)
    app = EspresoFeti()
    atp_params = ()
    atp_constraints = ()
    if with_atp:
        atp_params = (
            AtpParameter("preconditioner", ("LUMPED", "DIRICHLET")),
            AtpParameter("domain_size", (800, 1600, 3200)),
        )
        atp_constraints = (
            AtpConstraint(
                "DIRICHLET preconditioner is too memory-hungry for the largest domains",
                lambda cfg: not (
                    cfg.get("preconditioner") == "DIRICHLET" and cfg.get("domain_size", 0) >= 3200
                ),
            ),
        )
    tuner = ReadexTuner(
        application=app,
        nodes=nodes,
        core_freqs_ghz=(1.4, 2.0, 2.4, 3.0),
        uncore_freqs_ghz=(1.6, 2.4),
        atp_parameters=atp_params,
        atp_constraints=atp_constraints,
        objective=objective,
        max_iterations_per_experiment=3,
        streams=RandomStreams(seed),
    )
    return tuner.run_design_time_analysis(), tuner


@register_use_case(
    "uc4",
    description="READEX/MERIC + ESPRESO: design-time analysis vs default/static/dynamic production",
    objective_metric="readex_dynamic.energy_j",
    minimize=True,
)
def run_use_case(
    n_nodes: int = 2,
    seed: int = 5,
    objective: str = "energy_j",
    production_iterations: Optional[int] = 30,
) -> Dict[str, Any]:
    """Design-time analysis + production comparison (default / static / dynamic)."""
    cluster = make_cluster(max(n_nodes, 2), seed)
    model, tuner = design_time_analysis(cluster, n_nodes=n_nodes, objective=objective, seed=seed)
    app = EspresoFeti()
    app_params = dict(model.application_params)

    def production_run(hooks, label: str) -> Dict[str, float]:
        nodes = fresh_nodes(cluster, n_nodes)
        result = MpiJobSimulator.evaluate(
            nodes,
            app,
            app_params,
            hooks=hooks,
            streams=RandomStreams(seed + 100),
            job_id=f"uc4-{label}",
            max_iterations=production_iterations,
        )
        return {
            "runtime_s": result.runtime_s,
            "energy_j": result.energy_j,
            "power_w": result.average_power_w,
        }

    # Default: no runtime attached, base frequencies.
    default = production_run(None, "default")

    # Best static: single global configuration chosen from the design-time data.
    best_static_config = None
    best_static_score = float("inf")
    for entry in model.history:
        score = entry["score"]
        if score < best_static_score:
            best_static_score = score
            best_static_config = RegionConfig(
                core_freq_ghz=entry["core_freq_ghz"] or None,
                uncore_freq_ghz=entry["uncore_freq_ghz"] or None,
            )
    static_runtime = MericRuntime(region_configs={"*": best_static_config or RegionConfig()})
    static = production_run(static_runtime, "static")

    # READEX dynamic: per-region configurations from the tuning model.
    dynamic = production_run(model.runtime(), "dynamic")

    def saving(reference: Dict[str, float], candidate: Dict[str, float], metric: str) -> float:
        if reference[metric] <= 0:
            return 0.0
        return 1.0 - candidate[metric] / reference[metric]

    return {
        "application_params": app_params,
        "region_configs": {r: c.as_dict() for r, c in model.region_configs.items()},
        "experiments_run": tuner.experiments_run,
        "default": default,
        "best_static": static,
        "readex_dynamic": dynamic,
        "energy_saving_static_vs_default": saving(default, static, "energy_j"),
        "energy_saving_dynamic_vs_default": saving(default, dynamic, "energy_j"),
        "energy_saving_dynamic_vs_static": saving(static, dynamic, "energy_j"),
        "slowdown_dynamic_vs_default": (
            dynamic["runtime_s"] / default["runtime_s"] - 1.0 if default["runtime_s"] > 0 else 0.0
        ),
    }
