"""Hardware overprovisioning under a cluster-level power bound (§4.3).

"Hardware overprovisioning has been suggested as a viable approach to
address the challenges associated with site-wide or cluster-level power
constraints [Patki et al.].  Since more compute and storage devices
exist than can be powered up at any given time ... the problem of
selecting which components to power up and how to operate them becomes
challenging."  (§4.3)

This module implements that selection problem over the simulated
cluster:

* :class:`PoweredPartition` — which nodes are powered (and whether their
  accelerators are), which are dark, and what per-node cap the powered
  set runs under, with the power accounting the planner budgets against;
* :class:`OverprovisioningPlanner` — enumerate the feasible
  (node count × per-node cap × accelerator on/off) configurations for a
  system power bound, evaluate a target application on each, and return
  the best configuration for a runtime / energy / efficiency objective,
  alongside the "worst-case provisioned" baseline (every powered node at
  TDP) the paper's cited work compares against.

The planner is deliberately *offline*: it answers the §4.3 research
question "how can one quantify the trade-off between the number of
compute devices on the system vs. system-level efficiency" by measuring,
not by a closed-form model — the measured sweep is what
``benchmarks/bench_research_overprovisioning.py`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.apps.base import Application
from repro.apps.mpi import JobResult, MpiJobSimulator
from repro.hardware.cluster import Cluster
from repro.hardware.node import Node
from repro.sim.rng import RandomStreams

__all__ = ["PoweredPartition", "OverprovisionEvaluation", "OverprovisioningPlanner"]

#: Residual draw of a powered-off node (BMC and fans on standby), watts.
DARK_NODE_POWER_W = 5.0


@dataclass(frozen=True)
class PoweredPartition:
    """One way of operating an overprovisioned cluster.

    Attributes
    ----------
    nodes_powered:
        How many nodes are powered up (the rest stay dark).
    per_node_cap_w:
        RAPL-style node power cap applied to every powered node.
    accelerators_powered:
        Whether the powered nodes' GPUs are available (a dark GPU frees
        its share of the node budget for the CPU sockets).
    """

    nodes_powered: int
    per_node_cap_w: float
    accelerators_powered: bool = True

    def __post_init__(self) -> None:
        if self.nodes_powered < 1:
            raise ValueError("nodes_powered must be >= 1")
        if self.per_node_cap_w <= 0:
            raise ValueError("per_node_cap_w must be positive")

    def budgeted_power_w(self, total_nodes: int) -> float:
        """Worst-case system draw the site must budget for this partition."""
        if total_nodes < self.nodes_powered:
            raise ValueError("partition powers more nodes than the cluster has")
        dark = total_nodes - self.nodes_powered
        return self.nodes_powered * self.per_node_cap_w + dark * DARK_NODE_POWER_W

    def label(self) -> str:
        gpu = "+gpu" if self.accelerators_powered else "-gpu"
        return f"{self.nodes_powered}n@{self.per_node_cap_w:.0f}W{gpu}"


@dataclass(frozen=True)
class OverprovisionEvaluation:
    """Measured outcome of running the target application on one partition."""

    partition: PoweredPartition
    runtime_s: float
    energy_j: float
    average_power_w: float
    flops: float
    budgeted_power_w: float

    @property
    def flops_per_watt(self) -> float:
        return self.flops / self.average_power_w if self.average_power_w > 0 else 0.0

    @property
    def energy_delay_product(self) -> float:
        return self.energy_j * self.runtime_s

    def objective(self, name: str) -> float:
        """Scalar objective (smaller is better) for the planner."""
        if name == "runtime":
            return self.runtime_s
        if name == "energy":
            return self.energy_j
        if name == "edp":
            return self.energy_delay_product
        if name == "flops_per_watt":
            return -self.flops_per_watt
        raise ValueError(f"unknown objective {name!r}")

    def as_dict(self) -> Dict[str, float]:
        return {
            "nodes": float(self.partition.nodes_powered),
            "cap_w": self.partition.per_node_cap_w,
            "accelerators": 1.0 if self.partition.accelerators_powered else 0.0,
            "runtime_s": self.runtime_s,
            "energy_j": self.energy_j,
            "power_w": self.average_power_w,
            "flops_per_watt": self.flops_per_watt,
            "budgeted_power_w": self.budgeted_power_w,
        }


class OverprovisioningPlanner:
    """Select how many nodes to power, and at what cap, under a system bound."""

    def __init__(
        self,
        cluster: Cluster,
        system_power_bound_w: float,
        cap_levels: Optional[Sequence[float]] = None,
        include_accelerator_choice: bool = False,
        seed: int = 0,
    ):
        if system_power_bound_w <= 0:
            raise ValueError("system_power_bound_w must be positive")
        self.cluster = cluster
        self.system_power_bound_w = float(system_power_bound_w)
        node_spec = cluster.spec.node
        if cap_levels is None:
            # From the minimum enforceable cap up to TDP in ~6 steps.
            cap_levels = np.linspace(node_spec.min_power_w, node_spec.tdp_w, 6)
        self.cap_levels = [float(c) for c in cap_levels]
        if not self.cap_levels:
            raise ValueError("cap_levels must not be empty")
        if any(c <= 0 for c in self.cap_levels):
            raise ValueError("cap levels must be positive")
        self.include_accelerator_choice = bool(include_accelerator_choice)
        self.seed = int(seed)

    # -- configuration enumeration ------------------------------------------------
    def feasible_partitions(
        self, application: Optional[Application] = None, ranks_per_node: int = 1
    ) -> List[PoweredPartition]:
        """Every partition whose *budgeted* draw fits under the system bound.

        When ``application`` is given, node counts that violate its rank
        constraint (e.g. LULESH's cubic requirement) are dropped as well.
        """
        total = len(self.cluster)
        gpu_choices = (True, False) if self.include_accelerator_choice else (True,)
        out: List[PoweredPartition] = []
        for count in range(1, total + 1):
            if application is not None and not application.rank_constraint(
                count * ranks_per_node
            ):
                continue
            for cap in self.cap_levels:
                for gpus in gpu_choices:
                    partition = PoweredPartition(count, cap, accelerators_powered=gpus)
                    if partition.budgeted_power_w(total) <= self.system_power_bound_w + 1e-9:
                        out.append(partition)
        return out

    def fully_provisioned_baseline(
        self, application: Optional[Application] = None, ranks_per_node: int = 1
    ) -> Optional[PoweredPartition]:
        """The conventional (non-overprovisioned) configuration.

        Power as many nodes as fit at full TDP — the machine a site would
        have bought instead of an overprovisioned one.  Returns ``None``
        when not even one TDP node fits the bound.
        """
        tdp = self.cluster.spec.node.tdp_w
        total = len(self.cluster)
        best: Optional[PoweredPartition] = None
        for count in range(total, 0, -1):
            if application is not None and not application.rank_constraint(
                count * ranks_per_node
            ):
                continue
            partition = PoweredPartition(count, tdp, accelerators_powered=True)
            if partition.budgeted_power_w(total) <= self.system_power_bound_w + 1e-9:
                best = partition
                break
        return best

    # -- evaluation -------------------------------------------------------------------
    def _prepare_nodes(self, partition: PoweredPartition) -> List[Node]:
        """Configure the cluster for one partition in vectorised passes.

        DVFS reset, uncore reset, and the per-node cap vector all go
        through the ClusterState array kernels
        (:meth:`~repro.hardware.state.ClusterState.set_node_frequencies`,
        :meth:`Cluster.apply_power_caps`) instead of per-node loops; dark
        nodes are uncapped (NaN) and pinned at the BMC standby draw.
        """
        cluster = self.cluster
        state = cluster.state
        spec = cluster.spec.node
        n_powered = partition.nodes_powered
        for node in cluster.nodes:  # release keeps the free mask in sync
            node.allocated_to = None
        powered = np.arange(n_powered)
        state.set_node_frequencies(spec.cpu.freq_max_ghz, powered)
        state.set_node_uncore_frequencies(spec.cpu.uncore_max_ghz, powered)
        # Clear first so every evaluation starts from the same cap state
        # (apply_power_caps skips bookkeeping for unchanged node caps).
        cluster.apply_uniform_power_cap(None)
        caps = np.full(len(cluster), np.nan)
        caps[:n_powered] = partition.per_node_cap_w
        cluster.apply_power_caps(caps)
        if not partition.accelerators_powered and spec.n_gpus > 0:
            # Dark accelerators free their budget share for the CPU
            # sockets: pin every GPU at its minimum cap and hand the rest
            # of the node budget (cap - platform - parked GPUs) to the
            # packages, overriding the TDP-proportional split the generic
            # cap pass wrote.
            node_cap = max(partition.per_node_cap_w, spec.min_power_w)
            cpu_budget = (
                node_cap
                - spec.platform_power_w
                - spec.n_gpus * spec.gpu.min_power_cap_w
            )
            per_pkg = np.clip(
                cpu_budget / spec.n_sockets,
                spec.cpu.min_power_cap_w,
                spec.cpu.tdp_w,
            )
            state.pkg_power_cap_w[:n_powered] = per_pkg
            for node in cluster.nodes[:n_powered]:
                node.rapl.set_node_package_limit(float(per_pkg * spec.n_sockets))
                for gpu in node.gpus:
                    gpu.set_power_cap(gpu.spec.min_power_cap_w)
        state.node_current_power_w[n_powered:] = DARK_NODE_POWER_W
        return list(cluster.nodes[:n_powered])

    def evaluate(
        self,
        partition: PoweredPartition,
        application: Application,
        params: Optional[Mapping[str, Any]] = None,
        ranks_per_node: int = 1,
        max_iterations: Optional[int] = None,
    ) -> OverprovisionEvaluation:
        """Run the application once on this partition and measure it."""
        nodes = self._prepare_nodes(partition)
        result: JobResult = MpiJobSimulator.evaluate(
            nodes,
            application,
            params,
            ranks_per_node=ranks_per_node,
            streams=RandomStreams(self.seed),
            job_id=f"overprov-{partition.label()}",
            max_iterations=max_iterations,
        )
        return OverprovisionEvaluation(
            partition=partition,
            runtime_s=result.runtime_s,
            energy_j=result.energy_j,
            average_power_w=result.average_power_w,
            flops=result.average_flops,
            budgeted_power_w=partition.budgeted_power_w(len(self.cluster)),
        )

    def sweep(
        self,
        application: Application,
        params: Optional[Mapping[str, Any]] = None,
        ranks_per_node: int = 1,
        max_iterations: Optional[int] = None,
        partitions: Optional[Sequence[PoweredPartition]] = None,
    ) -> List[OverprovisionEvaluation]:
        """Evaluate the application on every feasible partition."""
        pool = (
            list(partitions)
            if partitions is not None
            else self.feasible_partitions(application, ranks_per_node)
        )
        return [
            self.evaluate(p, application, params, ranks_per_node, max_iterations)
            for p in pool
        ]

    def optimize(
        self,
        application: Application,
        params: Optional[Mapping[str, Any]] = None,
        objective: str = "runtime",
        ranks_per_node: int = 1,
        max_iterations: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Full overprovisioning study for one application.

        Returns the best partition for the objective, the fully provisioned
        baseline's measurement, the whole sweep, and the headline speedup
        (baseline runtime / best runtime) the §4.3 trade-off question asks
        about.
        """
        evaluations = self.sweep(
            application, params, ranks_per_node=ranks_per_node, max_iterations=max_iterations
        )
        if not evaluations:
            raise RuntimeError(
                "no feasible partition under the system power bound "
                f"{self.system_power_bound_w} W"
            )
        best = min(evaluations, key=lambda e: e.objective(objective))
        baseline_partition = self.fully_provisioned_baseline(application, ranks_per_node)
        baseline = None
        if baseline_partition is not None:
            baseline = next(
                (e for e in evaluations if e.partition == baseline_partition), None
            )
            if baseline is None:
                baseline = self.evaluate(
                    baseline_partition, application, params, ranks_per_node, max_iterations
                )
        speedup = (
            baseline.runtime_s / best.runtime_s
            if baseline is not None and best.runtime_s > 0
            else float("nan")
        )
        return {
            "objective": objective,
            "system_power_bound_w": self.system_power_bound_w,
            "best": best,
            "baseline": baseline,
            "speedup_over_fully_provisioned": speedup,
            "evaluations": evaluations,
        }

    # -- reporting ------------------------------------------------------------------
    @staticmethod
    def table(evaluations: Sequence[OverprovisionEvaluation]) -> List[Dict[str, float]]:
        """The sweep as a list of plain dictionaries (for report printing)."""
        return [e.as_dict() for e in evaluations]
