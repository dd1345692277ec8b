"""Compute node model: sockets + DRAM + NIC + optional GPUs.

The node is the unit the resource manager allocates and the unit the
node-level power manager controls.  It aggregates one or more
:class:`~repro.hardware.cpu.CpuPackage` objects behind a single
node-level control surface (node power cap, node frequency, node uncore
frequency) and a single RAPL interface, which is how SLURM, GEOPM and
Conductor address nodes in the paper's use cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.hardware.cpu import CpuPackage, CpuSpec, NodePhaseResult, execute_packages
from repro.hardware.gpu import GpuDevice, GpuSpec
from repro.hardware.rapl import RaplInterface
from repro.hardware.state import ClusterState
from repro.hardware.thermal import ThermalSpec
from repro.hardware.variation import VariationDraw, VariationModel
from repro.hardware.workload import PhaseDemand

__all__ = ["NodeSpec", "NodePhaseResult", "Node"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a compute node."""

    n_sockets: int = 2
    cpu: CpuSpec = field(default_factory=CpuSpec)
    n_gpus: int = 0
    gpu: GpuSpec = field(default_factory=GpuSpec)
    dram_gb: int = 192
    nic_bandwidth_gbps: float = 100.0
    nic_latency_us: float = 1.5
    #: Power of fans, VRs, board, NIC — everything outside RAPL domains (W).
    platform_power_w: float = 60.0
    thermal: ThermalSpec = field(default_factory=ThermalSpec)

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise ValueError("n_sockets must be >= 1")
        if self.n_gpus < 0:
            raise ValueError("n_gpus must be >= 0")
        if self.dram_gb <= 0:
            raise ValueError("dram_gb must be positive")
        if self.nic_bandwidth_gbps <= 0 or self.nic_latency_us < 0:
            raise ValueError("invalid NIC parameters")
        if self.platform_power_w < 0:
            raise ValueError("platform_power_w must be >= 0")

    @property
    def total_cores(self) -> int:
        return self.n_sockets * self.cpu.cores

    @property
    def tdp_w(self) -> float:
        """Nominal maximum node power (packages at TDP + GPUs + platform)."""
        return (
            self.n_sockets * self.cpu.tdp_w
            + self.n_gpus * self.gpu.max_power_w
            + self.platform_power_w
        )

    @property
    def min_power_w(self) -> float:
        """Lowest enforceable node power cap."""
        return (
            self.n_sockets * self.cpu.min_power_cap_w
            + self.n_gpus * self.gpu.min_power_cap_w
            + self.platform_power_w
        )


class Node:
    """A compute node with node-level power and frequency controls.

    A node's mutable state (allocation, instantaneous power, node cap,
    and everything inside its packages) lives in a
    :class:`~repro.hardware.state.ClusterState` row — the shared cluster
    store when ``state``/``node_index`` are given, or a private one-row
    store for standalone nodes.  The scalar attributes below are views,
    so cluster-wide vectorised accounting and the per-node API always
    agree; in particular ``allocate``/``release`` keep the cluster's
    free-node mask current without any rescan.
    """

    def __init__(
        self,
        spec: NodeSpec | None = None,
        hostname: str = "node0000",
        node_id: int = 0,
        variations: Optional[List[VariationDraw]] = None,
        ambient_offset_c: float = 0.0,
        state: Optional[ClusterState] = None,
        node_index: Optional[int] = None,
    ):
        self.spec = spec or NodeSpec()
        self.hostname = hostname
        self.node_id = node_id
        if state is None:
            state = ClusterState(
                1, self.spec.n_sockets, self.spec.n_gpus, node_spec=self.spec
            )
            node_index = 0
        if node_index is None:
            raise ValueError("state and node_index must be given together")
        self._state = state
        self._node_index = int(node_index)

        if variations is None:
            variations = [VariationModel.nominal() for _ in range(self.spec.n_sockets)]
        if len(variations) != self.spec.n_sockets:
            raise ValueError("one variation draw per socket is required")

        self.packages: List[CpuPackage] = [
            CpuPackage(
                self.spec.cpu,
                variations[i],
                self.spec.thermal,
                package_id=i,
                state=state,
                index=(self._node_index, i),
            )
            for i in range(self.spec.n_sockets)
        ]
        for pkg in self.packages:
            pkg.thermal.ambient_offset_c = ambient_offset_c
        self.gpus: List[GpuDevice] = [
            GpuDevice(self.spec.gpu, device_id=i) for i in range(self.spec.n_gpus)
        ]
        self.rapl = RaplInterface.for_node(
            self.spec.n_sockets,
            self.spec.cpu.min_power_cap_w,
            self.spec.cpu.tdp_w,
        )
        #: Each package with the RAPL package and DRAM domains its phases
        #: feed; bound by the first phase (see execute_phase).
        self._metered_packages: Optional[List[tuple]] = None

        #: Job currently holding the node (None when free).
        self._allocated_to: Optional[str] = None
        #: Memoized (state power_inputs_version, idle W); see idle_power_w.
        self._idle_power_cache: Optional[tuple[int, float]] = None
        state.node_free[self._node_index] = True
        state.node_power_cap_w[self._node_index] = np.nan
        #: Instantaneous power draw used by the cluster power meter (W).
        self.current_power_w = self.idle_power_w()

    # -- allocation -------------------------------------------------------
    @property
    def allocated_to(self) -> Optional[str]:
        """Job currently holding the node (None when free)."""
        return self._allocated_to

    @allocated_to.setter
    def allocated_to(self, job_id: Optional[str]) -> None:
        self._allocated_to = job_id
        # Keep the cluster's incremental free mask in sync (several layers
        # release nodes by assigning the attribute directly).
        self._state.node_free[self._node_index] = job_id is None
        self._state.free_version += 1

    @property
    def is_free(self) -> bool:
        return self._allocated_to is None

    @property
    def cluster_state(self) -> ClusterState:
        """The shared struct-of-arrays store this node's row lives in."""
        return self._state

    def allocate(self, job_id: str) -> None:
        if self._allocated_to is not None:
            raise RuntimeError(
                f"{self.hostname} already allocated to {self._allocated_to!r}"
            )
        self.allocated_to = job_id

    def release(self) -> None:
        self.allocated_to = None
        self.current_power_w = self.idle_power_w()

    # -- power / frequency controls ----------------------------------------
    @property
    def current_power_w(self) -> float:
        """Instantaneous power draw used by the cluster power meter (W)."""
        return float(self._state.node_current_power_w[self._node_index])

    @current_power_w.setter
    def current_power_w(self, watts: float) -> None:
        self._state.node_current_power_w[self._node_index] = float(watts)

    @property
    def node_power_cap_w(self) -> Optional[float]:
        cap = self._state.node_power_cap_w[self._node_index]
        return None if np.isnan(cap) else float(cap)

    def set_power_cap(self, node_watts: Optional[float]) -> Optional[float]:
        """Apply a node-level power cap; returns the enforced value.

        The platform share is subtracted and the remainder split evenly
        across packages (GPUs get their proportional share when present).
        """
        if node_watts is None:
            self._state.node_power_cap_w[self._node_index] = np.nan
            for pkg in self.packages:
                pkg.set_power_cap(None)
            for gpu in self.gpus:
                gpu.set_power_cap(None)
            self.rapl.clear_all_limits()
            return None

        node_watts = max(float(node_watts), self.spec.min_power_w)
        budget = node_watts - self.spec.platform_power_w
        gpu_tdp = self.spec.n_gpus * self.spec.gpu.max_power_w
        cpu_tdp = self.spec.n_sockets * self.spec.cpu.tdp_w
        total_tdp = gpu_tdp + cpu_tdp
        cpu_share = budget * (cpu_tdp / total_tdp) if total_tdp > 0 else budget
        gpu_share = budget - cpu_share

        applied = self.spec.platform_power_w
        per_pkg = cpu_share / self.spec.n_sockets
        for pkg in self.packages:
            applied += pkg.set_power_cap(per_pkg) or 0.0
        for i, gpu in enumerate(self.gpus):
            applied += gpu.set_power_cap(gpu_share / self.spec.n_gpus) or 0.0
        self.rapl.set_node_package_limit(cpu_share)
        self._state.node_power_cap_w[self._node_index] = node_watts
        return node_watts

    def set_frequency(self, freq_ghz: float) -> float:
        """Set the core frequency target on every package; returns granted."""
        granted = 0.0
        for pkg in self.packages:
            granted = pkg.set_frequency(freq_ghz)
        return granted

    def set_uncore_frequency(self, uncore_ghz: float) -> float:
        granted = 0.0
        for pkg in self.packages:
            granted = pkg.set_uncore_frequency(uncore_ghz)
        return granted

    # -- power telemetry -----------------------------------------------------
    def idle_power_w(self) -> float:
        """Node power when idle (packages idle + GPUs idle + platform).

        Memoized on the state's ``power_inputs_version``, which covers
        the only inputs that can change after construction — package
        temperatures, ambient offsets and uncore frequencies (idle pins
        the core frequency to ``freq_min``).  ``release()`` resets the
        node's draw to idle on every job teardown, so at trace scale
        this would otherwise re-run the package power model per release.
        """
        key = self._state.power_inputs_version
        cached = self._idle_power_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        idle = (
            sum(pkg.idle_power_w() for pkg in self.packages)
            + sum(gpu.idle_power_w() for gpu in self.gpus)
            + self.spec.platform_power_w
        )
        self._idle_power_cache = (key, idle)
        return idle

    def max_power_w(self) -> float:
        return self.spec.tdp_w

    def total_energy_j(self) -> float:
        """Energy consumed by compute so far (packages + GPUs)."""
        return sum(pkg.energy_j for pkg in self.packages) + sum(
            gpu.energy_j for gpu in self.gpus
        )

    def max_temperature_c(self) -> float:
        return max(pkg.thermal.temperature_c for pkg in self.packages)

    # -- execution -------------------------------------------------------------
    def execute_phase(
        self,
        demand: PhaseDemand,
        threads: Optional[int] = None,
        comm_seconds_override: Optional[float] = None,
    ) -> NodePhaseResult:
        """Run a node-level phase across all sockets.

        ``demand`` describes the whole node's share of the phase at the
        node's reference operating point; the sockets work on it in
        parallel, so the node-level duration is the slowest socket and the
        node-level power is the sum plus the platform power.
        """
        spec = self.spec
        sockets = spec.n_sockets
        total = sockets * spec.cpu.cores
        # ``max(1, min(threads, total))`` and ``max(1, threads // sockets)``
        # without the builtin calls.
        threads = total if threads is None else int(threads)
        threads = total if total < threads else threads if threads > 1 else 1
        per_pkg_threads = threads // sockets
        per_pkg_threads = per_pkg_threads if per_pkg_threads > 1 else 1

        metered = self._metered_packages
        if metered is None:
            # Bound on first use: the extra objects would lengthen every
            # full garbage collection of a cluster that never runs a phase
            # (trace replay peaked 4-5 MB higher with them bound eagerly).
            metered = self._metered_packages = [
                (
                    pkg,
                    self.rapl.domain(f"package-{pkg.package_id}"),
                    self.rapl.domain(f"dram-{pkg.package_id}"),
                )
                for pkg in self.packages
            ]
        result = execute_packages(
            metered, demand, per_pkg_threads, comm_seconds_override, spec.platform_power_w
        )
        self._state.node_current_power_w[self._node_index] = result.power_w
        return result

    def __repr__(self) -> str:
        return (
            f"Node({self.hostname!r}, sockets={self.spec.n_sockets}, "
            f"cap={self.node_power_cap_w}, job={self.allocated_to!r})"
        )
