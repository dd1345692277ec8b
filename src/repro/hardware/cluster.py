"""Cluster model: a set of nodes plus the site power meter.

A :class:`Cluster` is what the system-level layer of the PowerStack
(resource manager, site policies) operates on: it owns the nodes, knows
the site's procured power, and exposes a system power meter that the
power-corridor experiments (Figure 6, use case 5) sample over time.

All per-node and per-package state is held in one struct-of-arrays
:class:`~repro.hardware.state.ClusterState`, so the whole-cluster
operations here (total power, total energy, idle power, free/busy
partitioning, power-cap distribution) are
single numpy expressions rather than Python loops over ``self.nodes``.
The :class:`~repro.hardware.node.Node` objects remain the mutation API —
they read and write views into the same arrays, so the two layers can
never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.faults import injector as _faults
from repro.hardware.node import Node, NodeSpec
from repro.hardware.state import ClusterState
from repro.hardware.variation import VariationDraw, VariationModel
from repro.sim.rng import RandomStreams

__all__ = ["ClusterSpec", "Cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster / HPC system."""

    name: str = "sim-cluster"
    n_nodes: int = 16
    node: NodeSpec = field(default_factory=NodeSpec)
    variation: VariationModel = field(default_factory=VariationModel)
    #: Spread of per-node ambient temperature across the machine room (degC).
    ambient_spread_c: float = 3.0
    #: Site-procured power for this system (W).  ``None`` means "sum of TDPs".
    system_power_budget_w: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.ambient_spread_c < 0:
            raise ValueError("ambient_spread_c must be >= 0")
        if self.system_power_budget_w is not None and self.system_power_budget_w <= 0:
            raise ValueError("system_power_budget_w must be positive")


class Cluster:
    """A collection of simulated nodes with a system-level power view."""

    def __init__(self, spec: ClusterSpec | None = None, seed: int = 0):
        self.spec = spec or ClusterSpec()
        self.streams = RandomStreams(seed)
        rng = self.streams.stream("cluster.variation")
        ambient_rng = self.streams.stream("cluster.ambient")

        node_spec = self.spec.node
        n_nodes = self.spec.n_nodes
        n_sockets = node_spec.n_sockets
        self.state = ClusterState(
            n_nodes, n_sockets, node_spec.n_gpus, node_spec=node_spec
        )

        # One vectorised draw for the whole machine: consumes the random
        # streams in the exact per-node order of the scalar loop, so seeded
        # clusters are bit-identical to the previous construction path.
        power_eff, turbo, leakage = self.spec.variation.draw_array(
            rng, n_nodes * n_sockets
        )
        ambient_offsets = ambient_rng.uniform(
            0.0, self.spec.ambient_spread_c, size=n_nodes
        )

        self.nodes: List[Node] = []
        for i in range(n_nodes):
            variations = [
                VariationDraw(
                    power_efficiency=float(power_eff[i * n_sockets + s]),
                    max_turbo_scale=float(turbo[i * n_sockets + s]),
                    leakage_scale=float(leakage[i * n_sockets + s]),
                )
                for s in range(n_sockets)
            ]
            self.nodes.append(
                Node(
                    node_spec,
                    hostname=f"{self.spec.name}-{i:04d}",
                    node_id=i,
                    variations=variations,
                    ambient_offset_c=float(ambient_offsets[i]),
                    state=self.state,
                    node_index=i,
                )
            )
        self._by_hostname: Dict[str, Node] = {n.hostname: n for n in self.nodes}

    # -- basic access -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, hostname_or_id) -> Node:
        """Look a node up by hostname or integer id."""
        if isinstance(hostname_or_id, int):
            return self.nodes[hostname_or_id]
        if hostname_or_id not in self._by_hostname:
            raise KeyError(f"unknown node {hostname_or_id!r}")
        return self._by_hostname[hostname_or_id]

    def allocated_nodes(self) -> List[Node]:
        """Allocated nodes in node-id order (from the incremental mask)."""
        return [self.nodes[i] for i in self.state.busy_indices()]

    # -- array twins of the node-selection API (scheduler hot path) ---------
    def free_node_indices(self) -> np.ndarray:
        """Indices of unallocated nodes without materializing ``Node`` lists."""
        return self.state.free_indices()

    def rank_free_by_efficiency(self) -> np.ndarray:
        """Free-node indices best-part-first: the array twin of
        :meth:`rank_nodes_by_efficiency` restricted to free nodes — one
        masked stable argsort over the cached variation column."""
        return self.state.rank_free_by_efficiency()

    def rank_free_by_temperature(self) -> np.ndarray:
        """Free-node indices coolest-first (thermal-aware selection twin)."""
        return self.state.rank_free_by_temperature()

    def nodes_at(self, indices) -> List[Node]:
        """Materialize ``Node`` objects for an index array (launch only)."""
        return [self.nodes[int(i)] for i in indices]

    # -- batched allocation (scheduler hot path) -----------------------------
    # repro-lint: hot
    def allocate_nodes(self, nodes: List[Node], job_id: str) -> None:
        """Batched ``Node.allocate``: one mask write, one version bump.

        Semantically identical to calling ``allocate`` per node (same
        already-allocated check, same resulting state); at trace-replay
        scale the per-node property round trips dominated launch cost.
        """
        if not nodes:
            return
        for node in nodes:
            if node._allocated_to is not None:
                raise RuntimeError(
                    f"{node.hostname} already allocated to {node.allocated_to!r}"
                )
        idx = np.array([node.node_id for node in nodes], dtype=np.intp)
        self.state.node_free[idx] = False
        self.state.free_version += 1
        for node in nodes:
            node._allocated_to = job_id

    # repro-lint: hot
    def release_nodes(self, nodes: List[Node]) -> None:
        """Batched ``Node.release``: mask + idle-power writes in one shot.

        Uses the vectorised per-node idle power, which is bit-identical
        to the scalar ``Node.idle_power_w`` (pinned by
        ``test_idle_power_per_node_matches_scalar_method``).
        """
        if not nodes:
            return
        state = self.state
        idx = np.array([node.node_id for node in nodes], dtype=np.intp)
        state.node_free[idx] = True
        state.node_current_power_w[idx] = state.idle_power_per_node()[idx]
        state.free_version += 1
        for node in nodes:
            node._allocated_to = None

    # -- power accounting -----------------------------------------------------
    @property
    def system_power_budget_w(self) -> float:
        if self.spec.system_power_budget_w is not None:
            return self.spec.system_power_budget_w
        return self.total_tdp_w()

    def total_tdp_w(self) -> float:
        return self.state.total_tdp_w()

    def total_idle_power_w(self) -> float:
        return self.state.total_idle_power_w()

    def instantaneous_power_w(self, include_idle: bool = True) -> float:
        """Current system power: busy nodes at their draw, idle at idle power."""
        return self.state.instantaneous_power_w(include_idle=include_idle)

    def total_energy_j(self) -> float:
        total = self.state.total_energy_j()
        if self.spec.node.n_gpus > 0:
            total += sum(gpu.energy_j for node in self.nodes for gpu in node.gpus)
        return total

    # -- node selection helpers -------------------------------------------------
    def rank_nodes_by_efficiency(self, nodes: Optional[Iterable[Node]] = None) -> List[Node]:
        """Nodes ordered best-first by manufacturing power efficiency.

        Used for power-aware node selection: under a power cap the most
        efficient parts sustain the highest frequency, so a power-aware RM
        prefers them (§3.1.1 "which nodes to select ... manufacturing
        variation").
        """
        if nodes is None:
            badness = self.state.pkg_power_efficiency.mean(axis=1)
            return [self.nodes[i] for i in np.argsort(badness, kind="stable")]
        pool = list(nodes)

        def badness_of(node: Node) -> float:
            return float(
                np.mean([pkg.variation.power_efficiency for pkg in node.packages])
            )

        return sorted(pool, key=badness_of)

    # -- power capping ----------------------------------------------------------
    def apply_power_caps(self, per_node_watts: np.ndarray) -> np.ndarray:
        """Apply a per-node power-cap vector in one vectorised pass.

        ``per_node_watts`` has one entry per node; NaN entries uncap.  The
        package-cap arithmetic runs as numpy expressions over the whole
        cluster (:meth:`ClusterState.set_node_power_caps`); only the RAPL
        bookkeeping objects are updated per node.  Returns the enforced
        node caps (NaN where uncapped).
        """
        caps = np.asarray(per_node_watts, dtype=float)
        previous = self.state.node_power_cap_w.copy()
        inj = _faults.active()
        if inj is not None and inj.enabled:
            # Chaos at the cap-write boundary: eligible nodes may drop or
            # only partially apply the requested change.  Disabled plans
            # cost exactly the two checks above.
            caps = inj.cap_writes(
                [node.hostname for node in self.nodes], caps, previous
            )
        applied, cpu_share = self.state.set_node_power_caps(caps)
        has_gpus = self.spec.node.n_gpus > 0
        # Only nodes whose node-level cap actually changed need their
        # Python-side RAPL/GPU bookkeeping touched — a corridor tick that
        # re-caps a handful of jobs stays O(changed) in Python.
        changed = ~((applied == previous) | (np.isnan(applied) & np.isnan(previous)))
        for i in np.flatnonzero(changed):
            node = self.nodes[i]
            if np.isnan(applied[i]):
                node.rapl.clear_all_limits()
                if has_gpus:
                    for gpu in node.gpus:
                        gpu.set_power_cap(None)
            else:
                node.rapl.set_node_package_limit(float(cpu_share[i]))
                if has_gpus:
                    gpu_share = (applied[i] - self.spec.node.platform_power_w) - cpu_share[i]
                    for gpu in node.gpus:
                        gpu.set_power_cap(float(gpu_share) / self.spec.node.n_gpus)
        return applied

    def apply_uniform_power_cap(self, per_node_watts: Optional[float]) -> None:
        """Cap every node at the same value (the naive baseline policy)."""
        value = np.nan if per_node_watts is None else float(per_node_watts)
        self.apply_power_caps(np.full(len(self.nodes), value))

    # No src caller; kept for §2.1 time-varying power constraint.
    def apply_budget_trace(self, trace, time_s: float) -> np.ndarray:  # repro-lint: disable=RL006
        """Enforce a time-varying per-node budget at simulation time ``time_s``.

        ``trace`` is a :class:`~repro.experiments.scenarios.BudgetTrace`
        (or anything with a ``value_at(time_s)`` returning per-node watts,
        ``None`` meaning uncapped).  The cap lands through the vectorised
        :meth:`apply_power_caps` path, so the campaign's time-varying
        budget axis shares all bookkeeping with the static cap policies.
        """
        watts = trace.value_at(time_s)
        value = np.nan if watts is None else float(watts)
        return self.apply_power_caps(np.full(len(self.nodes), value))

    # -- experiment reset ------------------------------------------------------
    def reset_nodes(
        self,
        indices=None,
        cap_w: Optional[float] = None,
        freq_ghz: Optional[float] = None,
        uncore_ghz: Optional[float] = None,
    ) -> List[Node]:
        """Release + re-cap + re-clock a set of nodes for a fresh experiment run.

        The one replacement for the per-use-case ``_fresh_nodes`` hacks:
        allocation is cleared through the ``Node.allocated_to`` setter
        (which keeps ``ClusterState.node_free`` in sync, so the free/busy
        mask can never desync from the per-node attribute), the power cap
        lands through the vectorised :meth:`apply_power_caps`, and
        frequencies through the batched DVFS kernels.  ``Node.release()``
        is deliberately not used: it also resets the node's instantaneous
        power draw, which the historical experiment reset never did.
        ``freq_ghz``/``uncore_ghz`` default to the base core frequency and
        the maximum uncore frequency — the historical experiment starting
        point.  Returns the reset ``Node`` objects in index order.
        """
        if indices is None:
            indices = np.arange(len(self.nodes))
        indices = np.asarray(indices, dtype=int)
        nodes = [self.nodes[int(i)] for i in indices]
        for node in nodes:
            node.allocated_to = None
        caps = self.state.node_power_cap_w.copy()
        caps[indices] = np.nan if cap_w is None else float(cap_w)
        self.apply_power_caps(caps)
        cpu = self.spec.node.cpu
        self.state.set_node_frequencies(
            cpu.freq_base_ghz if freq_ghz is None else float(freq_ghz), indices
        )
        self.state.set_node_uncore_frequencies(
            cpu.uncore_max_ghz if uncore_ghz is None else float(uncore_ghz), indices
        )
        return nodes

    def summary(self) -> Dict[str, float]:
        """A small dictionary of headline cluster facts (for reports)."""
        return {
            "nodes": float(len(self.nodes)),
            "cores": float(self.spec.node.total_cores * len(self.nodes)),
            "tdp_w": self.total_tdp_w(),
            "idle_w": self.total_idle_power_w(),
            "budget_w": self.system_power_budget_w,
        }
