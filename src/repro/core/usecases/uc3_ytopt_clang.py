"""Use case 3 (§3.2.3, Figure 4): the ytopt auto-tuning flow.

Tunes the Clang loop-pragma parameters (and optionally system-level
knobs: thread count, frequency, power cap) of a tileable kernel through
the plopper, with the random-forest surrogate as the default search —
the exact loop of Figure 4: autotuner → plopper (compile + execute) →
performance database → repeat until ``--max-evals``.

The end-to-end twist from the paper: running the same search **under a
system power cap** yields a different best configuration, because the
power cap changes which part of the roofline the kernel sits on.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.apps.kernels import TileableKernel
from repro.compiler.plopper import Plopper
from repro.core.constraints import ConstraintSet, MetricConstraint
from repro.core.space import ParameterSpace
from repro.core.tuner import Autotuner, TuningResult
from repro.experiments.registry import register_use_case
from repro.experiments.shared import make_cluster
from repro.sim.rng import RandomStreams

__all__ = ["run_use_case", "tune_kernel"]


def tune_kernel(
    node_power_cap_w: Optional[float],
    max_evals: int = 40,
    seed: int = 4,
    search: str = "forest",
    include_system_knobs: bool = True,
    power_cap_constraint: bool = False,
) -> TuningResult:
    """One ytopt tuning run (optionally under a node power cap)."""
    cluster = make_cluster(1, seed)
    kernel = TileableKernel(n_iterations=2, base_seconds=4.0)
    plopper = Plopper(
        cluster.nodes[:1],
        kernel=kernel,
        node_power_cap_w=node_power_cap_w,
        streams=RandomStreams(seed),
    )
    space_dict: Dict[str, Any] = dict(kernel.parameter_space())
    if include_system_knobs:
        space_dict["threads"] = [14, 28, 56]
        space_dict["opt_level"] = ["-O2", "-O3", "-Ofast"]
    space = ParameterSpace.from_dict(space_dict, layer="application", name="ytopt")

    constraints = ConstraintSet()
    if power_cap_constraint and node_power_cap_w is not None:
        constraints.add(MetricConstraint.power_cap(node_power_cap_w))

    tuner = Autotuner(
        space=space,
        evaluator=plopper.evaluate,
        objective="runtime",
        constraints=constraints,
        search=search,
        max_evals=max_evals,
        seed=seed,
        name="uc3",
    )
    return tuner.run()


@register_use_case(
    "uc3",
    description="ytopt + Clang: autotune a tileable kernel uncapped vs under a power cap",
    budget_param="node_power_cap_w",
    objective_metric="capped.best_objective",
    minimize=True,
)
def run_use_case(
    max_evals: int = 30,
    seed: int = 4,
    node_power_cap_w: float = 240.0,
    search: str = "forest",
) -> Dict[str, Any]:
    """Tune the kernel uncapped and under a power cap; compare the winners."""
    uncapped = tune_kernel(None, max_evals=max_evals, seed=seed, search=search)
    capped = tune_kernel(node_power_cap_w, max_evals=max_evals, seed=seed, search=search)

    # Cross-evaluate: how does each winner perform in the other regime?
    cluster = make_cluster(1, seed)
    kernel = TileableKernel(n_iterations=2, base_seconds=4.0)

    def evaluate(config: Dict[str, Any], cap: Optional[float]) -> Dict[str, float]:
        plopper = Plopper(
            cluster.nodes[:1], kernel=kernel, node_power_cap_w=cap, streams=RandomStreams(seed + 7)
        )
        return dict(plopper.evaluate(config))

    cross = {}
    if uncapped.best_config is not None and capped.best_config is not None:
        cross = {
            "uncapped_winner_under_cap": evaluate(uncapped.best_config, node_power_cap_w),
            "capped_winner_uncapped": evaluate(capped.best_config, None),
        }
    return {
        "uncapped": uncapped.summary(),
        "capped": capped.summary(),
        "uncapped_convergence": uncapped.convergence,
        "capped_convergence": capped.convergence,
        "winners_differ": (
            uncapped.best_config != capped.best_config
            if uncapped.best_config and capped.best_config
            else False
        ),
        "cross_evaluation": cross,
        "node_power_cap_w": node_power_cap_w,
    }
