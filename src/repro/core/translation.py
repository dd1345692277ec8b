"""Top-down goal translation and bottom-up metric aggregation.

§4.1 names the missing interfaces: "(1) translation of high-level goals
into subsequent lower-level goals, (2) translation of monitored metrics
at lower layers to derived metrics at higher layers".  The
:class:`GoalTranslator` implements both directions for the power-budget
chain the framework uses everywhere:

    site budget  →  per-system budgets  →  per-job budgets  →
    per-node budgets  →  per-component (package / DRAM / GPU) limits

and, upward, node → job → system → site metric aggregation.  Every
translation step is recorded so Figure 1 / Figure 3 style reports can
show how the numbers filtered down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.hardware.node import Node

__all__ = ["TranslationStep", "GoalTranslator"]


@dataclass(frozen=True)
class TranslationStep:
    """One recorded budget-translation step."""

    source_layer: str
    target_layer: str
    description: str
    inputs: Dict[str, float]
    outputs: Dict[str, float]


@dataclass
class GoalTranslator:
    """Translates power budgets down the stack and metrics back up."""

    #: Fraction of each budget held back as safety margin at every step.
    margin_fraction: float = 0.02
    steps: List[TranslationStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.margin_fraction < 0.5:
            raise ValueError("margin_fraction must be in [0, 0.5)")

    def _record(self, source: str, target: str, description: str,
                inputs: Mapping[str, float], outputs: Mapping[str, float]) -> None:
        self.steps.append(
            TranslationStep(source, target, description, dict(inputs), dict(outputs))
        )

    # -- downward: budgets ---------------------------------------------------------------
    def site_to_systems(
        self, site_budget_w: float, system_weights: Mapping[str, float]
    ) -> Dict[str, float]:
        """Split the site budget across systems proportionally to weights."""
        if site_budget_w <= 0:
            raise ValueError("site_budget_w must be positive")
        if not system_weights:
            raise ValueError("system_weights must not be empty")
        total_weight = sum(system_weights.values())
        if total_weight <= 0:
            raise ValueError("system weights must sum to a positive value")
        usable = site_budget_w * (1.0 - self.margin_fraction)
        budgets = {
            name: usable * weight / total_weight for name, weight in system_weights.items()
        }
        self._record(
            "site", "system", "split site budget across systems",
            {"site_budget_w": site_budget_w}, budgets,
        )
        return budgets

    def system_to_jobs(
        self,
        system_budget_w: float,
        job_node_counts: Mapping[str, int],
        total_nodes: int,
        idle_power_per_node_w: float = 0.0,
    ) -> Dict[str, float]:
        """Derive per-job budgets proportional to their node counts."""
        if system_budget_w <= 0:
            raise ValueError("system_budget_w must be positive")
        if total_nodes <= 0:
            raise ValueError("total_nodes must be positive")
        allocated_nodes = sum(job_node_counts.values())
        idle_nodes = max(0, total_nodes - allocated_nodes)
        usable = (system_budget_w - idle_nodes * idle_power_per_node_w) * (
            1.0 - self.margin_fraction
        )
        usable = max(usable, 0.0)
        per_node = usable / total_nodes if total_nodes else 0.0
        budgets = {job: per_node * count for job, count in job_node_counts.items()}
        self._record(
            "system", "job", "proportional job budgets (equal watts per node)",
            {"system_budget_w": system_budget_w, "total_nodes": float(total_nodes)},
            budgets,
        )
        return budgets

    # No src caller; kept for §4.1 goal translation.
    def job_to_nodes(  # repro-lint: disable=RL006
        self,
        job_budget_w: float,
        nodes: Sequence[Node],
        demand_weights: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Split a job budget across its nodes.

        With ``demand_weights`` (e.g. measured per-node power demand or
        critical-path weights from a power-balancing runtime), the split is
        proportional; otherwise it is even.  Every node is clamped to its
        enforceable range.
        """
        if job_budget_w <= 0:
            raise ValueError("job_budget_w must be positive")
        if not nodes:
            raise ValueError("nodes must not be empty")
        weights = {
            node.hostname: (demand_weights or {}).get(node.hostname, 1.0) for node in nodes
        }
        total_weight = sum(weights.values())
        budgets: Dict[str, float] = {}
        for node in nodes:
            share = job_budget_w * weights[node.hostname] / total_weight
            budgets[node.hostname] = float(
                min(max(share, node.spec.min_power_w), node.max_power_w())
            )
        self._record(
            "job", "node", "split job budget across nodes",
            {"job_budget_w": job_budget_w, "nodes": float(len(nodes))}, budgets,
        )
        return budgets

    # No src caller; kept for §4.1 goal translation.
    def node_to_components(  # repro-lint: disable=RL006
        self, node: Node, node_budget_w: float
    ) -> Dict[str, float]:
        """Split a node budget into platform / package / DRAM / GPU shares."""
        if node_budget_w <= 0:
            raise ValueError("node_budget_w must be positive")
        budget = max(node_budget_w, node.spec.min_power_w)
        remaining = budget - node.spec.platform_power_w
        gpu_tdp = node.spec.n_gpus * node.spec.gpu.max_power_w
        cpu_tdp = node.spec.n_sockets * node.spec.cpu.tdp_w
        total = gpu_tdp + cpu_tdp
        shares: Dict[str, float] = {"platform": node.spec.platform_power_w}
        for i in range(node.spec.n_sockets):
            shares[f"package-{i}"] = remaining * (cpu_tdp / total) / node.spec.n_sockets
        for i in range(node.spec.n_gpus):
            shares[f"gpu-{i}"] = remaining * (gpu_tdp / total) / node.spec.n_gpus
        self._record(
            "node", "component", "split node budget across hardware domains",
            {"node_budget_w": node_budget_w}, shares,
        )
        return shares

    # -- downward: objective translation ----------------------------------------------------
    # No src caller; kept for §4.1 goal translation.
    def throughput_goal_to_job_runtime(  # repro-lint: disable=RL006
        self, jobs_per_hour: float, concurrent_jobs: int
    ) -> float:
        """Translate a system throughput target into a per-job runtime target.

        (The §3.1.4 example: a throughput objective at the RM becomes a
        time-to-solution target for each job-level runtime.)
        """
        if jobs_per_hour <= 0 or concurrent_jobs <= 0:
            raise ValueError("jobs_per_hour and concurrent_jobs must be positive")
        runtime_s = 3600.0 * concurrent_jobs / jobs_per_hour
        self._record(
            "system", "job", "throughput target to per-job runtime target",
            {"jobs_per_hour": jobs_per_hour, "concurrent_jobs": float(concurrent_jobs)},
            {"runtime_target_s": runtime_s},
        )
        return runtime_s

    # No src caller; kept for §4.1 goal translation.
    def job_runtime_to_app_progress(  # repro-lint: disable=RL006
        self, runtime_target_s: float, iterations: int
    ) -> float:
        """Translate a job runtime target into seconds per application iteration."""
        if runtime_target_s <= 0 or iterations <= 0:
            raise ValueError("runtime_target_s and iterations must be positive")
        per_step = runtime_target_s / iterations
        self._record(
            "job", "application", "runtime target to per-timestep budget",
            {"runtime_target_s": runtime_target_s, "iterations": float(iterations)},
            {"seconds_per_timestep": per_step},
        )
        return per_step

    # -- upward: metric aggregation -----------------------------------------------------------
    # No src caller; kept for §4.1 metric aggregation.
    @staticmethod
    def aggregate_node_metrics(  # repro-lint: disable=RL006
        node_metrics: Mapping[str, Mapping[str, float]]
    ) -> Dict[str, float]:
        """Aggregate per-node metrics into job-level metrics."""
        if not node_metrics:
            return {}
        runtime = max(m.get("runtime_s", 0.0) for m in node_metrics.values())
        energy = sum(m.get("energy_j", 0.0) for m in node_metrics.values())
        power = energy / runtime if runtime > 0 else 0.0
        return {"runtime_s": runtime, "energy_j": energy, "power_w": power}

    # No src caller; kept for §4.1 metric aggregation.
    @staticmethod
    def aggregate_job_metrics(  # repro-lint: disable=RL006
        job_metrics: Mapping[str, Mapping[str, float]]
    ) -> Dict[str, float]:
        """Aggregate per-job metrics into system-level metrics."""
        if not job_metrics:
            return {}
        energy = sum(m.get("energy_j", 0.0) for m in job_metrics.values())
        runtime = max(m.get("runtime_s", 0.0) for m in job_metrics.values())
        completed = float(len(job_metrics))
        throughput = completed / (runtime / 3600.0) if runtime > 0 else 0.0
        return {
            "energy_j": energy,
            "makespan_s": runtime,
            "throughput_jobs_per_hour": throughput,
            "power_w": energy / runtime if runtime > 0 else 0.0,
        }

    # -- reporting ------------------------------------------------------------------------------
    def trace(self) -> List[Dict[str, object]]:
        """The recorded translation chain (for Figure 1/3 style reports)."""
        return [
            {
                "from": step.source_layer,
                "to": step.target_layer,
                "description": step.description,
                "inputs": step.inputs,
                "outputs": step.outputs,
            }
            for step in self.steps
        ]
