"""Struct-of-arrays state kernel for whole-cluster simulation.

Every mutable per-package and per-node quantity of a simulated machine —
frequency targets, uncore frequencies, power caps, accumulated energy,
die temperatures, manufacturing-variation factors, allocation state —
lives in one :class:`ClusterState` as a numpy array.  The object layer
(:class:`~repro.hardware.cluster.Cluster`,
:class:`~repro.hardware.node.Node`,
:class:`~repro.hardware.cpu.CpuPackage`,
:class:`~repro.hardware.thermal.ThermalModel`) holds *views* into these
arrays: scalar accessors keep their historical semantics, while
whole-cluster operations (total power, total energy, idle power, the
free/busy partition, power-cap distribution, a batched thermal step)
become single numpy expressions instead of Python loops over nodes.

The kernel mirrors the array-programming treatment PR 1 applied to
``ParameterSpace``: the scalar per-object API is a thin shim, the arrays
are the ground truth, and the two views can never diverge because there
is only one copy of the data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.hardware import power_model as pm
from repro.hardware.workload import PhaseDemand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.hardware.node import NodeSpec

__all__ = ["IDLE_DEMAND", "SPIN_DEMAND", "COUNTDOWN_WAIT_DEMAND", "ClusterState"]

#: The demand a package presents when nothing is scheduled on it (the same
#: constants :meth:`CpuPackage.idle_power_w` has always used).
IDLE_DEMAND = PhaseDemand(
    name="idle",
    ref_seconds=1.0,
    core_fraction=0.0,
    memory_fraction=0.0,
    comm_fraction=0.0,
    activity_factor=0.05,
    dram_intensity=0.02,
)

#: What a package runs while its rank spins in an MPI wait loop at the
#: current frequency: the busy-wait COUNTDOWN removes.
SPIN_DEMAND = PhaseDemand(
    name="mpi_spin",
    ref_seconds=1.0,
    core_fraction=0.05,
    memory_fraction=0.05,
    comm_fraction=0.0,
    activity_factor=0.45,
    dram_intensity=0.05,
)

#: What a package runs while COUNTDOWN holds its waiting rank at the
#: lowest P-state.
COUNTDOWN_WAIT_DEMAND = PhaseDemand(
    name="countdown_wait",
    ref_seconds=1.0,
    core_fraction=0.05,
    memory_fraction=0.02,
    comm_fraction=0.0,
    activity_factor=0.15,
    dram_intensity=0.03,
)


class ClusterState:
    """Columnar backing store for ``n_nodes`` homogeneous nodes.

    Package arrays have shape ``(n_nodes, n_sockets)``; node arrays have
    shape ``(n_nodes,)``.  A standalone :class:`~repro.hardware.node.Node`
    or :class:`~repro.hardware.cpu.CpuPackage` owns a one-row state, so
    the scalar construction path and the cluster path share all code.

    Vectorised whole-cluster operations need the (shared) ``node_spec``;
    a state created for a bare package may omit it, in which case only
    the per-cell views are usable.
    """

    def __init__(
        self,
        n_nodes: int,
        n_sockets: int,
        n_gpus: int = 0,
        node_spec: Optional["NodeSpec"] = None,
    ):
        if n_nodes < 1 or n_sockets < 1:
            raise ValueError("n_nodes and n_sockets must be >= 1")
        if n_gpus < 0:
            raise ValueError("n_gpus must be >= 0")
        self.n_nodes = int(n_nodes)
        self.n_sockets = int(n_sockets)
        self.n_gpus = int(n_gpus)
        self.node_spec = node_spec

        shape = (self.n_nodes, self.n_sockets)
        # -- package knob state (written by CpuPackage setters) ------------
        self.pkg_freq_target_ghz = np.zeros(shape)
        self.pkg_uncore_ghz = np.zeros(shape)
        self.pkg_power_cap_w = np.zeros(shape)
        self.pkg_max_freq_ghz = np.zeros(shape)
        # -- package telemetry ---------------------------------------------
        self.pkg_energy_j = np.zeros(shape)
        self.pkg_temperature_c = np.zeros(shape)
        self.pkg_ambient_offset_c = np.zeros(shape)
        # -- manufacturing variation (immutable after binding) -------------
        self.pkg_power_efficiency = np.ones(shape)
        self.pkg_leakage_scale = np.ones(shape)
        # -- node-level state ----------------------------------------------
        #: NaN means "uncapped".
        self.node_power_cap_w = np.full(self.n_nodes, np.nan)
        self.node_current_power_w = np.zeros(self.n_nodes)
        #: Incrementally maintained free mask (True = unallocated), kept in
        #: sync by Node.allocate()/release() so free/busy partitioning never
        #: rescans the node list.
        self.node_free = np.ones(self.n_nodes, dtype=bool)
        #: Monotonic generation counter bumped on every free-mask mutation
        #: (Node.allocate/release).  Schedulers key memoized pass state
        #: (ranked free lists, per-job infeasibility marks) on this: equal
        #: versions guarantee an identical free set, so skipping recompute
        #: is decision-identical.
        self.free_version = 0
        #: Monotonic generation counter bumped on every write to the
        #: idle-power inputs (package temperatures, ambient offsets,
        #: uncore frequencies) by their write paths (ThermalModel,
        #: CpuPackage knobs, the vectorised twins here, and the
        #: scheduler's thermal excursions).  Idle-power memoisation keys
        #: on this: equal versions guarantee identical inputs, so the
        #: cache check is O(1) instead of an array compare.
        self.power_inputs_version = 0
        # -- lazily built ranking/scheduling caches -------------------------
        #: Per-node mean manufacturing power-efficiency factor (lower is a
        #: better part).  Variation is immutable once the packages have
        #: bound their cells, so this is computed once and reused by every
        #: scheduling pass; CpuPackage binding invalidates it.
        self._node_efficiency_key: Optional[np.ndarray] = None
        self._efficiency_order: Optional[np.ndarray] = None
        self._pstate_freqs_asc: Optional[np.ndarray] = None
        #: Memoized (power_inputs_version, idle W per node); see
        #: idle_power_per_node.
        self._idle_power_cache: Optional[tuple[int, np.ndarray]] = None
        #: Memoized (power_inputs_version, fraction, busy W per node);
        #: see busy_power_per_node.
        self._busy_power_cache: Optional[tuple[int, float, np.ndarray]] = None
        #: Memoized (free_version, count); every feasibility probe asks
        #: for the free count, and the mask only changes when the version
        #: bumps.
        self._free_count_cache: Optional[tuple[int, int]] = None

    # -- shape / partition helpers -----------------------------------------
    def free_indices(self) -> np.ndarray:
        """Indices of unallocated nodes, in node-id order."""
        return np.flatnonzero(self.node_free)

    def busy_indices(self) -> np.ndarray:
        """Indices of allocated nodes, in node-id order."""
        return np.flatnonzero(~self.node_free)

    # -- vectorised node ranking (scheduler hot path) -----------------------
    def invalidate_efficiency_cache(self) -> None:
        """Drop the cached per-node efficiency key (package (re)binding)."""
        self._node_efficiency_key = None
        self._efficiency_order = None

    def node_efficiency_key(self) -> np.ndarray:
        """Per-node ranking key for power-aware selection (lower = better).

        The mean of the node's package power-efficiency multipliers — the
        same key :meth:`Cluster.rank_nodes_by_efficiency` sorts scalar
        ``Node`` objects by, precomputed once for the whole machine.
        """
        if self._node_efficiency_key is None:
            self._node_efficiency_key = self.pkg_power_efficiency.mean(axis=1)
        return self._node_efficiency_key

    def rank_free_by_efficiency(self) -> np.ndarray:
        """Free-node indices ordered best-part-first (stable in node id).

        Computed as a boolean gather over the machine-wide stable
        efficiency order (built once: the key is immutable).  Identical
        to ``free[argsort(key[free], stable)]`` — a stable sort of a
        subset preserves the subset's relative order in the full stable
        sort — but O(n) per pass instead of O(n log n).
        """
        if self._efficiency_order is None:
            self._efficiency_order = np.argsort(
                self.node_efficiency_key(), kind="stable"
            )
        order = self._efficiency_order
        return order[self.node_free[order]]

    def rank_free_by_temperature(self) -> np.ndarray:
        """Free-node indices ordered coolest-first (stable in node id)."""
        free = self.free_indices()
        hottest = self.pkg_temperature_c.max(axis=1)
        return free[np.argsort(hottest[free], kind="stable")]

    @property
    def free_count(self) -> int:
        cached = self._free_count_cache
        if cached is not None and cached[0] == self.free_version:
            return cached[1]
        count = int(np.count_nonzero(self.node_free))
        self._free_count_cache = (self.free_version, count)
        return count

    @property
    def busy_count(self) -> int:
        return self.n_nodes - self.free_count

    def _require_spec(self) -> "NodeSpec":
        if self.node_spec is None:
            raise RuntimeError(
                "this ClusterState was created without a NodeSpec; "
                "whole-cluster operations are unavailable"
            )
        return self.node_spec

    # -- vectorised power model --------------------------------------------
    def idle_power_per_package(self) -> np.ndarray:
        """Idle power of every package (W), matching ``CpuPackage.idle_power_w``.

        At idle no core is active, so the core term of the package power
        is +0.0 and the sum starts at the uncore term: the same floats,
        in the same order, as the scalar P-state walk at ``freq_min``
        under :data:`IDLE_DEMAND`, per-package leakage variation
        included (base static power plus ``static * (leakage_scale - 1)``).
        """
        cpu = self._require_spec().cpu
        params = cpu.params
        intensity = IDLE_DEMAND.dram_intensity
        p_static = pm.static_power_array(self.pkg_temperature_c, params)
        return (
            pm.uncore_power_array(
                self.pkg_uncore_ghz, cpu.uncore_min_ghz, cpu.uncore_max_ghz, intensity, params
            )
            + p_static
            + pm.dram_power(intensity, params)
            + p_static * (self.pkg_leakage_scale - 1.0)
        )

    def idle_power_per_node(self) -> np.ndarray:
        """Idle power of every node (W), matching ``Node.idle_power_w``.

        Memoized on :attr:`power_inputs_version`, which covers the only
        drifting inputs — package temperatures, ambient offsets and
        uncore frequencies (the core frequency is pinned to ``freq_min``
        by the idle definition; efficiency and leakage variation are
        fixed at construction).  Every power sample reads this, and at
        trace-replay scale the full idle power-model evaluation
        dominated the sample cost.  Callers must not mutate the
        returned array.
        """
        cached = self._idle_power_cache
        if cached is not None and cached[0] == self.power_inputs_version:
            return cached[1]
        spec = self._require_spec()
        gpu_idle = self.n_gpus * spec.gpu.idle_power_w
        idle = self.idle_power_per_package().sum(axis=1) + gpu_idle + spec.platform_power_w
        self._idle_power_cache = (self.power_inputs_version, idle)
        return idle

    # -- vectorised accounting ---------------------------------------------
    def total_tdp_w(self) -> float:
        """Sum of nominal node maximum power (the procured-power default)."""
        return float(self.n_nodes * self._require_spec().tdp_w)

    def total_idle_power_w(self) -> float:
        return float(self.idle_power_per_node().sum())

    # repro-lint: hot
    def busy_power_per_node(self, activity_fraction: float) -> np.ndarray:
        """Per-node draw at a constant activity level between idle and TDP.

        ``idle + fraction * (tdp - idle)`` elementwise — the
        constant-power model trace replay charges allocated nodes with.
        Same float64 arithmetic as the scalar
        ``idle + fraction * (node.max_power_w() - idle)``, so the result
        is bit-identical per node.  Memoized like
        :meth:`idle_power_per_node` (single entry: traces replay one
        fraction at a time).  Callers must not mutate the returned array.
        """
        cached = self._busy_power_cache
        if (
            cached is not None
            and cached[0] == self.power_inputs_version
            and cached[1] == activity_fraction
        ):
            return cached[2]
        idle = self.idle_power_per_node()
        busy = idle + activity_fraction * (self._require_spec().tdp_w - idle)
        self._busy_power_cache = (self.power_inputs_version, activity_fraction, busy)
        return busy

    def instantaneous_power_w(self, include_idle: bool = True) -> float:
        """System power: busy nodes at their draw, idle nodes at idle power."""
        if include_idle:
            idle = self.idle_power_per_node()
        else:
            idle = 0.0
        return float(np.where(self.node_free, idle, self.node_current_power_w).sum())

    def total_energy_j(self) -> float:
        """Energy consumed by all packages so far (J).  GPUs are tracked by
        their device objects and added by the cluster layer when present."""
        return float(self.pkg_energy_j.sum())

    # -- batched thermal step ----------------------------------------------
    def advance_thermal(self, pkg_power_w: np.ndarray, dt_s: float) -> np.ndarray:
        """Advance every package's RC thermal model ``dt_s`` seconds at once.

        The vectorised twin of :meth:`ThermalModel.advance`: temperature
        relaxes toward ``ambient + R * power`` with the shared time
        constant.  Returns the updated temperature array (a view).
        """
        if dt_s < 0:
            raise ValueError("dt must be >= 0")
        spec = self._require_spec().thermal
        pkg_power_w = np.asarray(pkg_power_w, dtype=float)
        if np.any(pkg_power_w < 0):
            raise ValueError("power must be >= 0")
        target = (
            spec.ambient_c
            + self.pkg_ambient_offset_c
            + spec.resistance_k_per_w * pkg_power_w
        )
        alpha = 1.0 - np.exp(-dt_s / spec.time_constant_s)
        self.pkg_temperature_c += (target - self.pkg_temperature_c) * alpha
        self.power_inputs_version += 1
        return self.pkg_temperature_c

    # -- vectorised DVFS ----------------------------------------------------
    def _pstate_table(self) -> np.ndarray:
        """Ascending P-state frequencies of the (shared) CPU SKU."""
        if self._pstate_freqs_asc is None:
            spec = self._require_spec()
            freqs = np.array(sorted(p.frequency_ghz for p in spec.cpu.pstates()))
            freqs.setflags(write=False)
            self._pstate_freqs_asc = freqs
        return self._pstate_freqs_asc

    def set_node_frequencies(
        self, freq_ghz, node_indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Set the core-frequency target of whole nodes in one pass.

        The vectorised twin of :meth:`Node.set_frequency`: each request is
        clamped into ``[freq_min, that package's turbo limit]`` and floored
        to the nearest supported P-state, per package.  ``freq_ghz`` is a
        scalar or a per-node vector; ``node_indices`` restricts the write
        (default: every node).  Returns the granted per-package
        frequencies for the touched nodes.
        """
        spec = self._require_spec()
        if node_indices is None:
            node_indices = np.arange(self.n_nodes)
        node_indices = np.asarray(node_indices, dtype=int)
        requested = np.broadcast_to(
            np.asarray(freq_ghz, dtype=float).reshape(-1, 1) if np.ndim(freq_ghz) else float(freq_ghz),
            (node_indices.size, self.n_sockets),
        )
        clamped = np.clip(
            requested, spec.cpu.freq_min_ghz, self.pkg_max_freq_ghz[node_indices]
        )
        table = self._pstate_table()
        # Highest P-state frequency <= clamp (+eps); below the lowest
        # P-state falls back to the lowest, matching CpuPackage.
        pos = np.searchsorted(table, clamped + 1e-9, side="right") - 1
        granted = table[np.maximum(pos, 0)]
        self.pkg_freq_target_ghz[node_indices] = granted
        return granted

    def set_node_uncore_frequencies(
        self, uncore_ghz, node_indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorised twin of :meth:`Node.set_uncore_frequency` (a clip)."""
        spec = self._require_spec()
        if node_indices is None:
            node_indices = np.arange(self.n_nodes)
        node_indices = np.asarray(node_indices, dtype=int)
        granted = np.broadcast_to(
            np.clip(
                np.asarray(uncore_ghz, dtype=float),
                spec.cpu.uncore_min_ghz,
                spec.cpu.uncore_max_ghz,
            ).reshape(-1, 1) if np.ndim(uncore_ghz) else float(
                np.clip(uncore_ghz, spec.cpu.uncore_min_ghz, spec.cpu.uncore_max_ghz)
            ),
            (node_indices.size, self.n_sockets),
        )
        self.pkg_uncore_ghz[node_indices] = granted
        self.power_inputs_version += 1
        return granted

    # -- vectorised power-cap distribution ---------------------------------
    def set_node_power_caps(self, caps_w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Apply per-node power caps in one shot (NaN entries uncap).

        Replicates :meth:`Node.set_power_cap` arithmetic as numpy
        expressions: the cap is floored at the node minimum, the platform
        share subtracted, and the remainder split between the CPU packages
        and GPUs in proportion to their TDPs.  Package cap cells are
        written directly; the per-node RAPL/GPU device objects are the
        caller's to update (they are plain Python objects).

        Returns ``(applied_node_caps, cpu_share)`` — the enforced node cap
        (NaN where uncapped) and the node-level package budget the RAPL
        interface should advertise.
        """
        spec = self._require_spec()
        caps_w = np.asarray(caps_w, dtype=float)
        if caps_w.shape != (self.n_nodes,):
            raise ValueError(f"caps must have shape ({self.n_nodes},), got {caps_w.shape}")
        cpu = spec.cpu
        uncapped = np.isnan(caps_w)

        applied = np.maximum(caps_w, spec.min_power_w)
        budget = applied - spec.platform_power_w
        gpu_tdp = self.n_gpus * spec.gpu.max_power_w
        cpu_tdp = self.n_sockets * cpu.tdp_w
        total_tdp = gpu_tdp + cpu_tdp
        cpu_share = budget * (cpu_tdp / total_tdp) if total_tdp > 0 else budget
        per_pkg = np.clip(cpu_share / self.n_sockets, cpu.min_power_cap_w, cpu.tdp_w)

        # Uncapped nodes: packages fall back to their TDP default.
        self.pkg_power_cap_w[:] = np.where(uncapped[:, None], cpu.tdp_w, per_pkg[:, None])
        self.node_power_cap_w[:] = np.where(uncapped, np.nan, applied)
        return np.where(uncapped, np.nan, applied), cpu_share

    def __repr__(self) -> str:
        return (
            f"ClusterState(n_nodes={self.n_nodes}, n_sockets={self.n_sockets}, "
            f"n_gpus={self.n_gpus}, free={self.free_count})"
        )
