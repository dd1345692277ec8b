"""Node-level power cap enforcement and headroom reporting.

The node power manager is the layer that turns a job- or system-level
power budget into RAPL limits, and that answers "how much of my budget am
I actually using?" — the headroom question the power-balancing runtimes
(Conductor, GEOPM power balancer) and the resource manager's power pool
both depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hardware.cluster import Cluster
from repro.hardware.node import Node
from repro.hardware.workload import PhaseDemand

__all__ = [
    "PowerCapStatus",
    "NodePowerCapManager",
    "distribute_power_budget",
    "ClusterPowerCapManager",
]


def distribute_power_budget(
    budget_w: float,
    n_nodes: int,
    min_w: float,
    max_w: float,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Split a system power budget into per-node caps, vectorised.

    Waterfilling: each node starts at its weighted share of the budget,
    shares are clamped into ``[min_w, max_w]``, and the slack freed by
    clamped nodes is redistributed over the unclamped ones — each round
    is a single set of numpy expressions over the whole cluster, and at
    most ``n_nodes`` rounds are needed (each round clamps at least one
    node or terminates).

    The result always respects the floor: when ``budget_w`` is below
    ``n_nodes * min_w`` every node gets ``min_w`` (the budget is
    infeasible and the caller's corridor logic must shed load instead).
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if min_w <= 0 or max_w < min_w:
        raise ValueError("require 0 < min_w <= max_w")
    if weights is None:
        weights = np.ones(n_nodes)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_nodes,):
        raise ValueError(f"weights must have shape ({n_nodes},)")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    caps = np.full(n_nodes, min_w)
    remaining = budget_w - n_nodes * min_w
    if remaining <= 0:
        return caps
    headroom = np.full(n_nodes, max_w - min_w)
    open_mask = headroom > 0
    for _ in range(n_nodes):
        if remaining <= 1e-12 or not np.any(open_mask):
            break
        share = remaining * np.where(open_mask, weights, 0.0) / weights[open_mask].sum()
        grant = np.minimum(share, headroom)
        caps += grant
        headroom -= grant
        remaining -= float(grant.sum())
        newly_closed = open_mask & (headroom <= 1e-12)
        if not np.any(newly_closed):
            break
        open_mask &= ~newly_closed
    return caps


class ClusterPowerCapManager:
    """Distributes a system budget across a cluster's nodes in one pass.

    The system-level counterpart of :class:`NodePowerCapManager`: the
    budget split (:func:`distribute_power_budget`) and the cap
    application (:meth:`Cluster.apply_power_caps`) are both vectorised
    over the struct-of-arrays cluster state, so re-balancing a power
    corridor at every tick stays cheap at thousands of nodes.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.min_cap_w = cluster.spec.node.min_power_w
        self.max_cap_w = cluster.spec.node.tdp_w

    def set_system_budget(
        self, budget_w: float, weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Cap every node so the cluster fits under ``budget_w``; returns caps."""
        caps = distribute_power_budget(
            budget_w, len(self.cluster.nodes), self.min_cap_w, self.max_cap_w, weights
        )
        return self.cluster.apply_power_caps(caps)

    def clear(self) -> None:
        """Remove all node caps."""
        self.cluster.apply_uniform_power_cap(None)

    def total_cap_w(self) -> float:
        """Sum of the node caps in force (uncapped nodes count their TDP)."""
        caps = self.cluster.state.node_power_cap_w
        return float(np.where(np.isnan(caps), self.max_cap_w, caps).sum())


@dataclass(frozen=True)
class PowerCapStatus:
    """Snapshot of a node's power-cap state."""

    cap_w: Optional[float]
    measured_w: float
    headroom_w: float
    capped: bool


class NodePowerCapManager:
    """Enforces a node power cap and tracks measured power against it."""

    def __init__(self, node: Node, min_cap_w: Optional[float] = None):
        self.node = node
        self.min_cap_w = float(min_cap_w) if min_cap_w is not None else node.spec.min_power_w
        self._cap_w: Optional[float] = None
        self._last_measured_w: float = node.idle_power_w()

    @property
    def cap_w(self) -> Optional[float]:
        return self._cap_w

    @property
    def max_cap_w(self) -> float:
        return self.node.max_power_w()

    # No src caller; kept for §3.1.1 node cap and headroom.
    def set_cap(self, watts: Optional[float]) -> Optional[float]:  # repro-lint: disable=RL006
        """Apply a node power cap (clamped to the enforceable range)."""
        if watts is None:
            self._cap_w = None
            self.node.set_power_cap(None)
            return None
        watts = min(max(float(watts), self.min_cap_w), self.max_cap_w)
        self._cap_w = self.node.set_power_cap(watts)
        return self._cap_w

    # No src caller; kept for §3.1.1 node cap and headroom.
    def observe(self, measured_w: float) -> None:  # repro-lint: disable=RL006
        """Record the latest measured node power (from the monitor)."""
        if measured_w < 0:
            raise ValueError("measured power must be >= 0")
        self._last_measured_w = float(measured_w)

    def status(self) -> PowerCapStatus:
        cap = self._cap_w
        measured = self._last_measured_w
        if cap is None:
            return PowerCapStatus(None, measured, float("inf"), False)
        return PowerCapStatus(cap, measured, max(0.0, cap - measured), measured >= cap * 0.98)

    def headroom_w(self) -> float:
        """Unused watts under the current cap (inf when uncapped)."""
        return self.status().headroom_w

    # No src caller; kept for §3.1.1's power-balancing runtimes, which ask
    # a node for its uncapped demand before they split a job budget.
    def estimated_uncapped_power_w(  # repro-lint: disable=RL006
        self, demand: PhaseDemand
    ) -> float:
        """What the node would draw for a demand with no cap in force.

        Used by power-balancing runtimes to decide how much budget a node
        *wants* before distributing the job-level budget.
        """
        total = self.node.spec.platform_power_w
        for pkg in self.node.packages:
            total += pkg.power_at(demand, freq_ghz=pkg.frequency_ghz)
        return total
