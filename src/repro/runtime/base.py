"""Common base class and registry for job-level runtime systems.

A :class:`JobRuntime` is a :class:`~repro.apps.mpi.RuntimeHooks`
implementation with the state every power-aware runtime shares: the
job-level power budget assigned by the resource manager, the set of
nodes it controls, and an aggregate report it sends back up the stack
(the paper's runtime → RM telemetry interface: "reporting of job-level
power usage, request for additional power usage or returning unused
power", §3.1.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.apps.mpi import MpiJobSimulator, RuntimeHooks
from repro.hardware.node import Node
from repro.hardware.workload import PhaseDemand

__all__ = ["JobRuntime", "RUNTIME_REGISTRY", "register_runtime"]


#: Registry of runtime implementations keyed by their tool name, used by
#: Table 2 reporting and by the resource manager's ``--runtime`` launch option.
RUNTIME_REGISTRY: Dict[str, Type["JobRuntime"]] = {}


def register_runtime(cls: Type["JobRuntime"]) -> Type["JobRuntime"]:
    """Class decorator adding a runtime to :data:`RUNTIME_REGISTRY`."""
    RUNTIME_REGISTRY[cls.name] = cls
    return cls


class JobRuntime(RuntimeHooks):
    """Base class for job-level power-aware runtime systems."""

    #: Tool name as it appears in Table 2.
    name = "none"
    #: Control parameters the runtime exposes to the layers above (Table 1's
    #: job/runtime row); used by the co-tuning framework to build its space.
    tunable_parameters: Dict[str, Sequence] = {}

    def __init__(self, power_budget_w: Optional[float] = None):
        if power_budget_w is not None and power_budget_w <= 0:
            raise ValueError("power_budget_w must be positive")
        self._power_budget_w = power_budget_w
        self.nodes: List[Node] = []
        self._returned_power_w = 0.0
        self._requested_power_w = 0.0
        self._reclaimed_power_w = 0.0

    # -- budget management ------------------------------------------------------
    @property
    def power_budget_w(self) -> Optional[float]:
        """Job-level power budget assigned by the resource manager (W)."""
        return self._power_budget_w

    # No src caller; kept for §3.1.1 budget change mid-run.
    def set_power_budget(self, watts: Optional[float]) -> None:  # repro-lint: disable=RL006
        """Update the job budget (the RM may do this mid-run)."""
        if watts is not None and watts <= 0:
            raise ValueError("power budget must be positive")
        self._power_budget_w = watts
        if self.nodes:
            self.distribute_budget()

    def per_node_budget_w(self) -> Optional[float]:
        if self._power_budget_w is None or not self.nodes:
            return None
        return self._power_budget_w / len(self.nodes)

    def distribute_budget(self) -> None:
        """Default budget distribution: an even split across nodes."""
        share = self.per_node_budget_w()
        for node in self.nodes:
            node.set_power_cap(share)

    # -- RM-facing interface -------------------------------------------------------
    def report(self) -> Dict[str, float]:
        """Telemetry the runtime reports upward to the resource manager."""
        out = {
            "power_budget_w": self._power_budget_w or 0.0,
            "nodes": float(len(self.nodes)),
            "returned_power_w": self._returned_power_w,
            "requested_power_w": self._requested_power_w,
        }
        # Only present after a crash actually reclaimed budget, so
        # fault-free reports keep their historical (golden-pinned) shape.
        if self._reclaimed_power_w:
            out["reclaimed_power_w"] = self._reclaimed_power_w
        return out

    def return_power(self, watts: float) -> float:
        """Declare unused power the RM may reclaim (§3.1.1)."""
        if watts < 0:
            raise ValueError("watts must be >= 0")
        self._returned_power_w = watts
        return watts

    def request_power(self, watts: float) -> float:
        """Ask the RM for additional power (granted or not by the RM)."""
        if watts < 0:
            raise ValueError("watts must be >= 0")
        self._requested_power_w = watts
        return watts

    def reclaim_node(self, hostname: str) -> float:
        """Drop an unresponsive node and hand its budget share back.

        The RM calls this when a node dies mid-job: the node leaves the
        runtime's control set, the job budget shrinks by the dead node's
        even share (which is returned, in watts, for the RM's ledger),
        and the remainder is redistributed over the survivors.  Unknown
        hostnames reclaim nothing.
        """
        index = next(
            (i for i, node in enumerate(self.nodes) if node.hostname == hostname),
            None,
        )
        if index is None:
            return 0.0
        share = self.per_node_budget_w()
        del self.nodes[index]
        if share is None:
            return 0.0
        remaining = self._power_budget_w - share
        self._power_budget_w = remaining if remaining > 0 else None
        self._reclaimed_power_w += share
        if self.nodes and self._power_budget_w is not None:
            self.distribute_budget()
        return share

    # -- hook plumbing ----------------------------------------------------------------
    def on_job_start(self, sim: MpiJobSimulator) -> None:
        self.nodes = list(sim.nodes)
        if self._power_budget_w is not None:
            self.distribute_budget()

    def on_iteration_start(self, sim: MpiJobSimulator, iteration: int) -> None:
        # Node sets can change between iterations (malleable jobs).
        if sim.nodes != self.nodes:
            self.nodes = list(sim.nodes)
            if self._power_budget_w is not None:
                self.distribute_budget()

    def on_job_end(self, sim: MpiJobSimulator, result) -> None:
        self.reset_nodes()

    def reset_nodes(self) -> None:
        """Uncap the nodes at default clocks (also after a failed job)."""
        for node in self.nodes:
            node.set_power_cap(None)
            node.set_frequency(node.spec.cpu.freq_base_ghz)
            node.set_uncore_frequency(node.spec.cpu.uncore_max_ghz)

    # -- helpers for subclasses ----------------------------------------------------------
    @staticmethod
    def is_mpi_region(region: PhaseDemand) -> bool:
        """Whether a region is dominated by MPI communication."""
        return region.comm_fraction >= 0.4 or "mpi_call" in region.tags

    def describe(self) -> Dict[str, object]:
        """Tool description used by the Table 2 component registry."""
        return {
            "name": self.name,
            "layer": "job/runtime",
            "tunable_parameters": {k: list(v) for k, v in self.tunable_parameters.items()},
        }


# The trivial "no runtime" implementation is itself registered so launch
# configurations can always name a runtime.
register_runtime(JobRuntime)
