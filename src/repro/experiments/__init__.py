"""Unified experiment-campaign subsystem for the seven §3.2 use cases.

The paper's product is its experiments; this package is the layer that
runs them at scale.  A declarative :class:`ScenarioSpec` names a use
case, its parameters, a seed list and (optionally) a time-varying
per-node power-budget trace; a :class:`Campaign` expands scenario×seed
grids and runs them in the calling thread or fans them out over a
thread or process pool (``serial`` / ``thread`` / ``process``),
captures every run's metrics into one columnar
:class:`~repro.telemetry.database.PerformanceDatabase` (tagged by use
case, scenario and seed) and aggregates across seeds.

The seven use-case modules register themselves here
(:func:`register_use_case`); each registers its public ``run_use_case``
function as its runner, so a campaign of one scenario and one seed is
bit-identical to the direct call.

Run campaigns from the command line with ``python -m repro.experiments``.
"""

from repro.experiments.campaign import (
    Campaign,
    CampaignResult,
    RunResult,
    RunSpec,
    derive_seeds,
)
from repro.experiments.registry import (
    UseCaseDef,
    build_scenario,
    get_use_case,
    list_use_cases,
    register_use_case,
    run_registered,
    scalar_metrics,
)
from repro.experiments.scenarios import BudgetTrace, ScenarioSpec
from repro.experiments.shared import fresh_nodes, make_cluster

__all__ = [
    "BudgetTrace",
    "Campaign",
    "CampaignResult",
    "RunResult",
    "RunSpec",
    "ScenarioSpec",
    "UseCaseDef",
    "build_scenario",
    "derive_seeds",
    "fresh_nodes",
    "get_use_case",
    "list_use_cases",
    "make_cluster",
    "register_use_case",
    "run_registered",
    "scalar_metrics",
]
