"""The end-to-end auto-tuning framework (the orange box of Figure 1).

Given a PowerStack description and a workload, the
:class:`EndToEndTuner` builds one cross-layer parameter space —

* **system** layer: job power-budget policy, power-aware node selection,
  backfilling,
* **job/runtime** layer: GEOPM agent choice and allowed performance
  degradation,
* **node** layer: uncore frequency policy,
* **application** layer: the application's own tunables (optional —
  applied to every job running that application),
* **system-software** layer: compiler optimisation level (optional, for
  kernel workloads),

— and co-tunes them for "the optimal solution (the smallest runtime, the
lowest power, or the lowest energy) under a system power cap".  Every
evaluation runs the whole workload through a fresh simulated PowerStack,
so the cross-layer interactions the paper is interested in are measured,
not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.apps.base import Application
from repro.apps.generator import JobRequest
from repro.core.constraints import ConstraintSet, MetricConstraint
from repro.core.cotuner import CoTuner, CoTuningResult
from repro.core.parameters import BooleanParameter, CategoricalParameter, OrdinalParameter
from repro.core.space import ParameterSpace
from repro.core.stack import PowerStack, PowerStackRun, replace_request
from repro.core.translation import GoalTranslator
from repro.resource_manager.policies import JobPowerPolicy, SitePolicies
from repro.runtime.geopm import GeopmPolicy, GeopmRuntime
from repro.telemetry.database import PerformanceDatabase

__all__ = ["EndToEndResult", "EndToEndTuner"]

#: GEOPM agents the end-to-end tuner considers at the runtime layer.
RUNTIME_AGENTS = ("power_governor", "power_balancer", "energy_efficient", "frequency_map")


@dataclass
class EndToEndResult:
    """Best cross-layer configuration plus supporting evidence."""

    cotuning: CoTuningResult
    baseline_metrics: Dict[str, float]
    best_metrics: Dict[str, float]
    translation_trace: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def best_by_layer(self) -> Dict[str, Dict[str, Any]]:
        return self.cotuning.best_by_layer

    @property
    def database(self) -> PerformanceDatabase:
        return self.cotuning.database

    def improvement_over_baseline(self, metric: str = "runtime_s") -> float:
        """Relative improvement of the tuned configuration over the baseline."""
        base = self.baseline_metrics.get(metric)
        best = self.best_metrics.get(metric)
        if not base or best is None or base <= 0:
            return 0.0
        return (base - best) / base

    def summary(self) -> Dict[str, Any]:
        return {
            "best_by_layer": self.best_by_layer,
            "best_metrics": self.best_metrics,
            "baseline_metrics": self.baseline_metrics,
            "evaluations": self.cotuning.tuning.evaluations,
        }


class EndToEndTuner:
    """Co-tunes system, runtime, node, application and compiler layers."""

    def __init__(
        self,
        stack: PowerStack,
        workload: Sequence[JobRequest],
        objective: str = "runtime",
        system_power_cap_w: Optional[float] = None,
        application: Optional[Application] = None,
        tune_layers: Sequence[str] = ("system", "runtime", "node"),
        search: str = "forest",
        max_evals: int = 40,
        seed: int = 0,
    ):
        if not workload:
            raise ValueError("the end-to-end tuner needs a workload")
        self.stack = stack
        self.workload = list(workload)
        self.objective = objective
        self.system_power_cap_w = system_power_cap_w
        self.application = application
        self.tune_layers = tuple(tune_layers)
        self.search = search
        self.max_evals = int(max_evals)
        self.seed = int(seed)
        self.translator = GoalTranslator()
        self._evaluation_count = 0

    # -- space construction ----------------------------------------------------------------
    def build_layer_spaces(self) -> Dict[str, ParameterSpace]:
        spaces: Dict[str, ParameterSpace] = {}
        if "system" in self.tune_layers:
            system = ParameterSpace(name="system")
            system.add(
                CategoricalParameter(
                    "job_power_policy",
                    [p.value for p in JobPowerPolicy],
                    layer="system",
                )
            )
            system.add(BooleanParameter("power_aware_node_selection", layer="system"))
            system.add(BooleanParameter("backfill", layer="system"))
            spaces["system"] = system
        if "runtime" in self.tune_layers:
            runtime = ParameterSpace(name="runtime")
            runtime.add(CategoricalParameter("agent", list(RUNTIME_AGENTS), layer="runtime"))
            runtime.add(
                OrdinalParameter("perf_degradation", [0.02, 0.05, 0.10, 0.20], layer="runtime")
            )
            spaces["runtime"] = runtime
        if "node" in self.tune_layers:
            node = ParameterSpace(name="node")
            node.add(OrdinalParameter("uncore_ghz", [1.4, 1.8, 2.2, 2.4], layer="node"))
            spaces["node"] = node
        if "application" in self.tune_layers and self.application is not None:
            app_space = ParameterSpace.from_dict(
                self.application.parameter_space(), layer="application", name="application"
            )
            spaces["application"] = app_space
        if "system_software" in self.tune_layers:
            sysw = ParameterSpace(name="system_software")
            sysw.add(
                OrdinalParameter("opt_level_index", [0, 1, 2, 3, 4], layer="system_software")
            )
            spaces["system_software"] = sysw
        if not spaces:
            raise ValueError(f"no tunable layers selected from {self.tune_layers!r}")
        return spaces

    # -- evaluation ---------------------------------------------------------------------------
    def _apply_system_layer(
        self, policies: SitePolicies, scheduler_kwargs: Dict[str, Any], config: Mapping[str, Any]
    ) -> None:
        if "job_power_policy" in config:
            policies.job_power_policy = JobPowerPolicy(config["job_power_policy"])
        if "power_aware_node_selection" in config:
            scheduler_kwargs["power_aware_node_selection"] = bool(
                config["power_aware_node_selection"]
            )
        if "backfill" in config:
            scheduler_kwargs["backfill"] = bool(config["backfill"])

    def _runtime_factory(self, runtime_config: Mapping[str, Any], node_config: Mapping[str, Any]):
        agent = str(runtime_config.get("agent", "power_governor"))
        degradation = float(runtime_config.get("perf_degradation", 0.05))
        uncore = node_config.get("uncore_ghz")

        def factory(job, budget_w, scheduler):
            policy = GeopmPolicy(
                agent=agent,
                power_budget_w=budget_w,
                perf_degradation=degradation,
                source="end_to_end_tuner",
            )
            if uncore is not None:
                for node in scheduler.cluster.nodes:
                    node.set_uncore_frequency(float(uncore))
            job.launch_metadata = {"geopm_agent": agent, "power_budget_w": budget_w}
            return GeopmRuntime(policy=policy)

        return factory

    def _workload_with_app_params(self, app_config: Mapping[str, Any]) -> List[JobRequest]:
        if not app_config or self.application is None:
            return list(self.workload)
        out: List[JobRequest] = []
        for request in self.workload:
            if request.application.name == self.application.name:
                params = dict(request.params)
                params.update(app_config)
                out.append(replace_request(request, params=params))
            else:
                out.append(request)
        return out

    def evaluate(self, nested_config: Mapping[str, Mapping[str, Any]]) -> Dict[str, float]:
        """Run the workload under one cross-layer configuration."""
        import copy as _copy

        policies = _copy.deepcopy(self.stack.config.policies)
        if self.system_power_cap_w is not None:
            policies.system_power_budget_w = self.system_power_cap_w
        scheduler_cfg = _copy.deepcopy(self.stack.config.scheduler)
        scheduler_kwargs: Dict[str, Any] = {}
        self._apply_system_layer(policies, scheduler_kwargs, nested_config.get("system", {}))
        for key, value in scheduler_kwargs.items():
            setattr(scheduler_cfg, key, value)

        factory = self._runtime_factory(
            nested_config.get("runtime", {}), nested_config.get("node", {})
        )
        workload = self._workload_with_app_params(nested_config.get("application", {}))

        self._evaluation_count += 1
        run: PowerStackRun = self.stack.run_workload(
            workload,
            seed_offset=0,  # same cluster draw for every evaluation: fair comparison
            runtime_factory=factory,
            policies_override=policies,
            scheduler_override=scheduler_cfg,
        )
        return run.metrics()

    # -- baseline & constraints --------------------------------------------------------------------
    def baseline_configuration(self) -> Dict[str, Dict[str, Any]]:
        """The untuned default: proportional budgets, static power governor."""
        baseline: Dict[str, Dict[str, Any]] = {}
        if "system" in self.tune_layers:
            baseline["system"] = {
                "job_power_policy": JobPowerPolicy.PROPORTIONAL.value,
                "power_aware_node_selection": False,
                "backfill": True,
            }
        if "runtime" in self.tune_layers:
            baseline["runtime"] = {"agent": "power_governor", "perf_degradation": 0.05}
        if "node" in self.tune_layers:
            baseline["node"] = {"uncore_ghz": 2.4}
        if "application" in self.tune_layers and self.application is not None:
            baseline["application"] = self.application.default_parameters()
        if "system_software" in self.tune_layers:
            baseline["system_software"] = {"opt_level_index": 3}
        return baseline

    def constraints(self) -> ConstraintSet:
        constraints = ConstraintSet()
        if self.system_power_cap_w is not None:
            constraints.add(MetricConstraint.power_cap(self.system_power_cap_w))
        return constraints

    # -- main entry point ------------------------------------------------------------------------------
    def run(self) -> EndToEndResult:
        spaces = self.build_layer_spaces()
        cotuner = CoTuner(
            layer_spaces=spaces,
            evaluator=self.evaluate,
            objective=self.objective,
            constraints=self.constraints(),
            search=self.search,
            max_evals=self.max_evals,
            seed=self.seed,
            name="end-to-end",
        )
        baseline_metrics = dict(self.evaluate(self.baseline_configuration()))
        result = cotuner.run()

        # Record the budget-translation chain for the winning configuration.
        cluster_spec = self.stack.config.cluster
        node_tdp = cluster_spec.node.tdp_w
        budget = self.system_power_cap_w or self.stack.config.policies.system_power_budget_w
        per_system = self.translator.site_to_systems(budget * 1.05, {cluster_spec.name: 1.0})
        job_nodes = {r.job_id: r.nodes_requested for r in self.workload[:4]}
        self.translator.system_to_jobs(
            per_system[cluster_spec.name], job_nodes, cluster_spec.n_nodes,
            idle_power_per_node_w=node_tdp * 0.25,
        )

        return EndToEndResult(
            cotuning=result,
            baseline_metrics=baseline_metrics,
            best_metrics=dict(result.best_metrics),
            translation_trace=self.translator.trace(),
        )
