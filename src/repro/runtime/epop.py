"""EPOP: Elastic Phase-Oriented Programming (use case 5).

EPOP (John et al.) is the programming paradigm built on top of the
Invasive MPI runtime: the application is written as a sequence of
*phases* with explicit points where resource redistribution is allowed.
"EPOP measures the power as well as performance characteristics of the
application and communicates with IRM upon request.  Using EPOP, the
programmer can explicitly inform IRM about the application phases where
resource redistribution is needed or not."

:class:`EpopRuntime` plays that role for a simulated job: it

* measures per-iteration power and progress,
* answers the IRM's prediction queries (expected power at a given node
  count),
* accepts a pending resize request from the IRM and applies it at the
  next *elastic point* (iteration boundary), respecting the
  application's rank constraint (e.g. LULESH's cubic requirement).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.apps.mpi import MpiJobSimulator, RegionRecord
from repro.hardware.node import Node
from repro.hardware.workload import PhaseDemand
from repro.runtime.base import JobRuntime, register_runtime

__all__ = ["EpopRuntime"]


@register_runtime
class EpopRuntime(JobRuntime):
    """Elastic phase-oriented runtime cooperating with the invasive RM."""

    name = "epop"
    tunable_parameters = {
        "elastic": [True, False],
        "resize_overhead_s": [1.0, 5.0, 15.0],
    }

    def __init__(
        self,
        elastic: bool = True,
        resize_overhead_s: float = 5.0,
        power_budget_w: Optional[float] = None,
        on_phase_report: Optional[Callable[[Dict[str, float]], None]] = None,
    ):
        super().__init__(power_budget_w=power_budget_w)
        if resize_overhead_s < 0:
            raise ValueError("resize_overhead_s must be >= 0")
        self.elastic = bool(elastic)
        self.resize_overhead_s = float(resize_overhead_s)
        self.on_phase_report = on_phase_report

        self._sim: Optional[MpiJobSimulator] = None
        self._pending_nodes: Optional[List[Node]] = None
        self._released_nodes: List[Node] = []
        self._iteration_energy_j = 0.0
        self._iteration_duration_s = 0.0
        self._last_power_w = 0.0
        self.resizes = 0
        self.blocked_resizes = 0

    # -- IRM-facing interface --------------------------------------------------------
    @property
    def current_nodes(self) -> List[Node]:
        return list(self._sim.nodes) if self._sim is not None else list(self.nodes)

    @property
    def measured_power_w(self) -> float:
        """Most recent per-iteration average power of the whole job."""
        return self._last_power_w

    def predicted_power_w(self, node_count: Optional[int] = None) -> float:
        """Expected job power if it ran on ``node_count`` nodes.

        EPOP's prediction is empirical: power per node is assumed constant,
        so the job power scales with the node count.
        """
        current = len(self.current_nodes)
        if current == 0 or self._last_power_w <= 0:
            return 0.0
        node_count = current if node_count is None else int(node_count)
        return self._last_power_w / current * node_count

    def can_resize_to(self, node_count: int) -> bool:
        """Whether the application's rank constraint allows this node count."""
        if self._sim is None or not self.elastic:
            return False
        ranks = node_count * self._sim.ranks_per_node
        return node_count >= 1 and self._sim.application.rank_constraint(ranks)

    def request_resize(self, new_nodes: Sequence[Node]) -> bool:
        """IRM entry point: request a new node set at the next elastic point."""
        if not self.elastic or self._sim is None:
            self.blocked_resizes += 1
            return False
        if not self.can_resize_to(len(new_nodes)):
            self.blocked_resizes += 1
            return False
        self._pending_nodes = list(new_nodes)
        return True

    def take_released_nodes(self) -> List[Node]:
        """Nodes the job gave back at its last shrink (for the RM to reclaim)."""
        released, self._released_nodes = self._released_nodes, []
        return released

    # -- hooks ---------------------------------------------------------------------------
    def on_job_start(self, sim: MpiJobSimulator) -> None:
        super().on_job_start(sim)
        self._sim = sim

    def on_iteration_start(self, sim: MpiJobSimulator, iteration: int) -> None:
        super().on_iteration_start(sim, iteration)
        self._iteration_energy_j = 0.0
        self._iteration_duration_s = 0.0

    def on_region_exit(
        self,
        sim: MpiJobSimulator,
        region: PhaseDemand,
        iteration: int,
        records: Sequence[RegionRecord],
    ) -> None:
        self._iteration_energy_j += sum(r.total_energy_j for r in records)
        self._iteration_duration_s += max((r.total_seconds for r in records), default=0.0)

    def on_iteration_end(self, sim: MpiJobSimulator, iteration: int) -> None:
        if self._iteration_duration_s > 0:
            self._last_power_w = self._iteration_energy_j / self._iteration_duration_s
        report = {
            "iteration": float(iteration),
            "duration_s": self._iteration_duration_s,
            "energy_j": self._iteration_energy_j,
            "power_w": self._last_power_w,
            "nodes": float(len(sim.nodes)),
        }
        if self.on_phase_report is not None:
            self.on_phase_report(report)

        # Elastic point: apply any pending redistribution.
        if self._pending_nodes is not None:
            new = set(n.hostname for n in self._pending_nodes)
            self._released_nodes = [n for n in sim.nodes if n.hostname not in new]
            sim.resize(self._pending_nodes)
            self.nodes = list(self._pending_nodes)
            if self._power_budget_w is not None:
                self.distribute_budget()
            self._pending_nodes = None
            self.resizes += 1

    # -- reporting -------------------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        data = super().report()
        data.update(
            {
                "resizes": float(self.resizes),
                "blocked_resizes": float(self.blocked_resizes),
                "measured_power_w": self._last_power_w,
                "elastic": 1.0 if self.elastic else 0.0,
            }
        )
        return data
