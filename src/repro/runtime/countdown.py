"""COUNTDOWN: performance-neutral energy saving in MPI phases (use case 6).

Following Cesarini et al. (IEEE TC 2020), COUNTDOWN intercepts MPI calls
(PMPI) and drops the core to the lowest P-state while a rank *waits*
inside communication, restoring the previous state before the
application resumes — "obtained transparently to the user, without
requiring application code modifications or recompilation".

The paper's use case adds a resource-manager-facing configuration knob:
the RM selects the COUNTDOWN "level of aggressiveness" at job start
(§3.2.6): profile only, reduce power during wait **and** copy time, or
reduce power during wait time only.

In the simulator the two savings channels are:

* **barrier wait time** (load imbalance slack) — instead of the default
  busy-wait power, waiting nodes draw power at the minimum P-state;
* **communication-dominated regions** (tagged with ``mpi_call``) — in
  the ``WAIT_AND_COPY`` mode the whole region runs at the minimum
  P-state, trading a small copy-time slowdown for a larger power cut.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Sequence

from repro.apps.mpi import MpiJobSimulator, RegionRecord
from repro.hardware.node import Node
from repro.hardware.state import COUNTDOWN_WAIT_DEMAND
from repro.hardware.workload import PhaseDemand
from repro.runtime.base import JobRuntime, register_runtime

__all__ = ["CountdownMode", "CountdownRuntime"]


class CountdownMode(str, Enum):
    """COUNTDOWN configuration levels (§3.2.6 items i-iii)."""

    PROFILE_ONLY = "profile_only"
    WAIT_AND_COPY = "wait_and_copy"
    WAIT_ONLY = "wait_only"


@register_runtime
class CountdownRuntime(JobRuntime):
    """MPI-phase frequency scaling runtime."""

    name = "countdown"
    tunable_parameters = {
        "mode": [m.value for m in CountdownMode],
        "wait_threshold_s": [0.0005, 0.001, 0.005],
    }

    def __init__(
        self,
        mode: CountdownMode | str = CountdownMode.WAIT_ONLY,
        wait_threshold_s: float = 0.0005,
        power_budget_w: Optional[float] = None,
    ):
        super().__init__(power_budget_w=power_budget_w)
        self.mode = CountdownMode(mode)
        if wait_threshold_s < 0:
            raise ValueError("wait_threshold_s must be >= 0")
        self.wait_threshold_s = float(wait_threshold_s)

        self._saved_freq: Dict[str, float] = {}
        self._in_mpi_region = False
        #: Profiling counters (always collected, even in PROFILE_ONLY mode).
        self.mpi_time_s = 0.0
        self.wait_time_s = 0.0
        self.app_time_s = 0.0
        self.downclocked_regions = 0

    # -- helpers -------------------------------------------------------------------
    def _min_freq(self, node: Node) -> float:
        return node.spec.cpu.freq_min_ghz

    def _downclock(self, nodes: Sequence[Node]) -> None:
        for node in nodes:
            if node.hostname not in self._saved_freq:
                self._saved_freq[node.hostname] = node.packages[0].frequency_ghz
            node.set_frequency(self._min_freq(node))

    def _restore(self, nodes: Sequence[Node]) -> None:
        for node in nodes:
            saved = self._saved_freq.pop(node.hostname, None)
            if saved is not None:
                node.set_frequency(saved)

    # -- hooks ------------------------------------------------------------------------
    def on_region_enter(self, sim: MpiJobSimulator, region: PhaseDemand, iteration: int) -> None:
        self._in_mpi_region = self.is_mpi_region(region)
        if self.mode is CountdownMode.WAIT_AND_COPY and self._in_mpi_region:
            # The whole MPI region (wait + copy) runs at the lowest P-state.
            self._downclock(sim.nodes)
            self.downclocked_regions += 1

    def on_region_exit(
        self,
        sim: MpiJobSimulator,
        region: PhaseDemand,
        iteration: int,
        records: Sequence[RegionRecord],
    ) -> None:
        for record in records:
            if self._in_mpi_region:
                self.mpi_time_s += record.result.duration_s
            else:
                self.app_time_s += record.result.duration_s
            self.wait_time_s += record.wait_s
        if self.mode is CountdownMode.WAIT_AND_COPY and self._in_mpi_region:
            self._restore(sim.nodes)
        self._in_mpi_region = False

    def wait_power_w(
        self, sim: MpiJobSimulator, node: Node, region: PhaseDemand, wait_s: float
    ) -> Optional[float]:
        """Power drawn while waiting at the barrier.

        In the two active modes, waits longer than the trigger threshold
        are spent at the minimum P-state instead of busy-spinning at the
        current frequency.
        """
        if self.mode is CountdownMode.PROFILE_ONLY:
            return None
        if wait_s < self.wait_threshold_s:
            return None
        total = node.spec.platform_power_w
        for pkg in node.packages:
            total += pkg.power_at(COUNTDOWN_WAIT_DEMAND, freq_ghz=self._min_freq(node))
        return total

    # -- reporting ----------------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        data = super().report()
        total = self.app_time_s + self.mpi_time_s
        data.update(
            {
                "mode": float(list(CountdownMode).index(self.mode)),
                "mpi_time_s": self.mpi_time_s,
                "wait_time_s": self.wait_time_s,
                "app_time_s": self.app_time_s,
                "mpi_fraction": self.mpi_time_s / total if total > 0 else 0.0,
                "downclocked_regions": float(self.downclocked_regions),
            }
        )
        return data
