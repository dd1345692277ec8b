"""Coordination of two runtime systems on the same job (use case 7).

§3.2.7 describes running COUNTDOWN and MERIC simultaneously: COUNTDOWN
handles the fine-grained MPI communication phases, MERIC handles the
coarser instrumented compute regions.  "The challenge is to implement a
communication layer that should allow synergy of these tools, which
guarantees that both tools keep the system's knowledge of which tool is
in charge and what the current and future hardware settings are, without
creating a conflict."

:class:`RuntimeCoordinator` is that communication layer: it multiplexes
the job hooks to an ordered list of runtimes and enforces a simple
ownership rule per region — communication-dominated regions belong to
the runtime that declares MPI ownership (COUNTDOWN), every other region
belongs to the region-tuning runtime (MERIC).  Only the owner of a
region may change hardware settings inside it; the other runtime still
receives telemetry so its profiles stay consistent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.mpi import MpiJobSimulator, RegionRecord
from repro.hardware.node import Node
from repro.hardware.workload import PhaseDemand
from repro.runtime.base import JobRuntime, register_runtime
from repro.runtime.countdown import CountdownRuntime
from repro.runtime.meric import MericRuntime

__all__ = ["RuntimeCoordinator"]


@register_runtime
class RuntimeCoordinator(JobRuntime):
    """Arbitration layer multiplexing job hooks across multiple runtimes."""

    name = "coordinator"
    tunable_parameters = {
        "mpi_owner": ["countdown", "meric"],
    }

    def __init__(
        self,
        runtimes: Sequence[JobRuntime],
        mpi_owner: Optional[str] = None,
        power_budget_w: Optional[float] = None,
    ):
        super().__init__(power_budget_w=power_budget_w)
        if not runtimes:
            raise ValueError("the coordinator needs at least one runtime")
        self.runtimes: List[JobRuntime] = list(runtimes)
        #: Name of the runtime that owns MPI regions (defaults to the first
        #: CountdownRuntime present, else the first runtime).
        if mpi_owner is None:
            mpi_owner = next(
                (r.name for r in self.runtimes if isinstance(r, CountdownRuntime)),
                self.runtimes[0].name,
            )
        self.mpi_owner = mpi_owner
        self.conflicts_prevented = 0
        self._current_owner: Optional[JobRuntime] = None

    # -- ownership ----------------------------------------------------------------
    def _owner_for(self, region: PhaseDemand) -> JobRuntime:
        """Decide which runtime is in charge of a region."""
        if self.is_mpi_region(region):
            for runtime in self.runtimes:
                if runtime.name == self.mpi_owner:
                    return runtime
        # Non-MPI regions go to the first region-tuning runtime, then fall
        # back to the first registered runtime.
        for runtime in self.runtimes:
            if isinstance(runtime, MericRuntime):
                return runtime
        return self.runtimes[0]

    # -- hook multiplexing -------------------------------------------------------------
    def on_job_start(self, sim: MpiJobSimulator) -> None:
        super().on_job_start(sim)
        for runtime in self.runtimes:
            runtime.on_job_start(sim)

    def on_iteration_start(self, sim: MpiJobSimulator, iteration: int) -> None:
        super().on_iteration_start(sim, iteration)
        for runtime in self.runtimes:
            runtime.on_iteration_start(sim, iteration)

    def on_region_enter(self, sim: MpiJobSimulator, region: PhaseDemand, iteration: int) -> None:
        owner = self._owner_for(region)
        self._current_owner = owner
        # Only the owner may act on the hardware; other runtimes are told of
        # the region purely through exit telemetry.
        non_owners = [r for r in self.runtimes if r is not owner]
        if non_owners:
            self.conflicts_prevented += len(non_owners)
        owner.on_region_enter(sim, region, iteration)

    def on_region_exit(
        self,
        sim: MpiJobSimulator,
        region: PhaseDemand,
        iteration: int,
        records: Sequence[RegionRecord],
    ) -> None:
        owner = self._current_owner or self._owner_for(region)
        owner.on_region_exit(sim, region, iteration, records)
        for runtime in self.runtimes:
            if runtime is not owner and isinstance(runtime, CountdownRuntime):
                # COUNTDOWN still profiles regions it does not own.
                runtime.app_time_s += max((r.result.duration_s for r in records), default=0.0)
        self._current_owner = None

    def on_iteration_end(self, sim: MpiJobSimulator, iteration: int) -> None:
        for runtime in self.runtimes:
            runtime.on_iteration_end(sim, iteration)

    def on_job_end(self, sim: MpiJobSimulator, result) -> None:
        for runtime in self.runtimes:
            runtime.on_job_end(sim, result)
        super().on_job_end(sim, result)

    def wait_power_w(
        self, sim: MpiJobSimulator, node: Node, region: PhaseDemand, wait_s: float
    ) -> Optional[float]:
        """First runtime (in priority order) that wants to handle the wait wins."""
        for runtime in self.runtimes:
            power = runtime.wait_power_w(sim, node, region, wait_s)
            if power is not None:
                return power
        return None

    # -- reporting ----------------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        data = super().report()
        data["conflicts_prevented"] = float(self.conflicts_prevented)
        for runtime in self.runtimes:
            for key, value in runtime.report().items():
                data[f"{runtime.name}.{key}"] = value
        return data
