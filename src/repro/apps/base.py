"""Application interface and a configurable synthetic application.

An :class:`Application` describes a parallel program in terms the
PowerStack layers can reason about:

* a **tunable parameter space** (the application-level control
  parameters of Table 1: algorithm choices, blocking factors, input
  options),
* an optional **rank constraint** (e.g. LULESH requires a cubic number
  of ranks — §3.2.5 calls this out as information the resource manager
  needs for malleability),
* a **phase structure**: the sequence of
  :class:`~repro.hardware.workload.PhaseDemand` regions that one
  iteration executes on each node, plus one-off setup phases.

Applications do not execute themselves — the
:class:`~repro.apps.mpi.MpiJobSimulator` runs them across allocated
nodes under whatever runtime system is attached.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.hardware.workload import PhaseDemand

__all__ = ["Application", "SyntheticApplication", "make_phase"]


def make_phase(
    name: str,
    seconds: float,
    kind: str = "compute",
    comm_fraction: float = 0.0,
    ref_threads: int = 1,
    **overrides: Any,
) -> PhaseDemand:
    """Convenience constructor for common phase kinds.

    ``kind`` selects a sensible compute/memory split:

    * ``"compute"``  — core-bound (DGEMM-like),
    * ``"memory"``   — bandwidth-bound (STREAM-like),
    * ``"mixed"``    — balanced,
    * ``"mpi"``      — dominated by communication,
    * ``"io"``       — knob-insensitive (I/O, OS work).
    """
    presets: Dict[str, Dict[str, float]] = {
        "compute": dict(core_fraction=0.85, memory_fraction=0.10, activity_factor=1.0,
                        dram_intensity=0.15, ops_per_cycle_ref=2.4),
        "memory": dict(core_fraction=0.15, memory_fraction=0.75, activity_factor=0.55,
                       dram_intensity=0.9, ops_per_cycle_ref=0.7),
        "mixed": dict(core_fraction=0.5, memory_fraction=0.35, activity_factor=0.8,
                      dram_intensity=0.5, ops_per_cycle_ref=1.4),
        "mpi": dict(core_fraction=0.05, memory_fraction=0.10, activity_factor=0.35,
                    dram_intensity=0.1, ops_per_cycle_ref=0.4),
        "io": dict(core_fraction=0.05, memory_fraction=0.05, activity_factor=0.2,
                   dram_intensity=0.05, ops_per_cycle_ref=0.3),
    }
    if kind not in presets:
        raise ValueError(f"unknown phase kind {kind!r}; choose from {sorted(presets)}")
    fields = dict(presets[kind])
    remaining = 1.0 - comm_fraction
    fields["core_fraction"] = fields["core_fraction"] * remaining
    fields["memory_fraction"] = fields["memory_fraction"] * remaining
    fields.update(overrides)
    return PhaseDemand(
        name=name,
        ref_seconds=seconds,
        comm_fraction=comm_fraction,
        ref_threads=ref_threads,
        **fields,
    )


class Application(abc.ABC):
    """Abstract base class for phase-structured applications."""

    #: Human-readable application name.
    name: str = "application"

    # -- tunable surface ----------------------------------------------------
    def parameter_space(self) -> Dict[str, Sequence[Any]]:
        """The application-level tunable parameters and their value sets.

        Returned as ``{parameter_name: sequence_of_allowed_values}``; the
        auto-tuning framework converts this into its typed parameter
        space (:mod:`repro.core.parameters`).
        """
        return {}

    def default_parameters(self) -> Dict[str, Any]:
        """A valid default configuration."""
        return {name: values[0] for name, values in self.parameter_space().items()}

    def validate_parameters(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Merge ``params`` over the defaults and validate the result."""
        space = self.parameter_space()
        merged = self.default_parameters()
        for key, value in params.items():
            if key not in space:
                raise KeyError(
                    f"{self.name}: unknown parameter {key!r}; valid: {sorted(space)}"
                )
            allowed = space[key]
            if allowed and value not in allowed:
                raise ValueError(
                    f"{self.name}: value {value!r} not allowed for {key!r}"
                )
            merged[key] = value
        return merged

    # -- structure ------------------------------------------------------------
    def rank_constraint(self, ranks: int) -> bool:
        """Whether the application can run with ``ranks`` MPI ranks."""
        return ranks >= 1

    @abc.abstractmethod
    def iterations(self, params: Mapping[str, Any]) -> int:
        """Number of main iterations (timesteps / solver iterations)."""

    def setup_phases(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        """Phases executed once before the iteration loop (per node)."""
        return []

    @abc.abstractmethod
    def phase_sequence(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        """Per-node phases of one main iteration at the reference point."""

    def iteration_phase_sequence(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int, iteration: int
    ) -> List[PhaseDemand]:
        """Phases of a *specific* iteration.

        Most applications execute the same region sequence every timestep
        and simply delegate to :meth:`phase_sequence`.  Applications with
        per-timestep structure (e.g. a molecular-dynamics code that only
        rebuilds its neighbour list every k-th step, §4.4's "semantic
        information in the application") override this to expose it.
        """
        return self.phase_sequence(params, nodes, ranks_per_node)

    def semantic_state(self, params: Mapping[str, Any], iteration: int) -> Dict[str, Any]:
        """Application-semantic description of one iteration (§4.4).

        Returns an empty dictionary by default.  Applications that can
        describe what a timestep is about to do (phase kinds, special
        events such as neighbour-list rebuilds or I/O steps) return hints
        a semantic-aware runtime can act on *before* the work executes.
        """
        return {}

    # -- reporting --------------------------------------------------------------
    def progress_metric(self) -> str:
        """Name of the application-centric progress metric (§3.1.2's
        "watts per timestep" discussion): what one iteration means."""
        return "iterations"

    def describe(self) -> Dict[str, Any]:
        """A serialisable description (used by Table 1/2 reporting)."""
        return {
            "name": self.name,
            "parameters": {k: list(v) for k, v in self.parameter_space().items()},
            "progress_metric": self.progress_metric(),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SyntheticApplication(Application):
    """An application assembled from an explicit list of phases.

    Useful in tests and in the workload generator, where we want precise
    control over the compute/memory/communication mix without modelling a
    particular real code.
    """

    def __init__(
        self,
        name: str,
        iteration_phases: Sequence[PhaseDemand],
        n_iterations: int = 10,
        setup: Optional[Sequence[PhaseDemand]] = None,
        comm_scaling: float = 0.15,
        rank_multiple: int = 1,
    ):
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if rank_multiple < 1:
            raise ValueError("rank_multiple must be >= 1")
        self.name = name
        self._phases = list(iteration_phases)
        self._setup = list(setup or [])
        self._iterations = int(n_iterations)
        #: How quickly communication time grows with the node count
        #: (crude log-based surrogate for collective scaling).
        self.comm_scaling = float(comm_scaling)
        self._rank_multiple = rank_multiple

    def rank_constraint(self, ranks: int) -> bool:
        return ranks >= 1 and ranks % self._rank_multiple == 0

    def iterations(self, params: Mapping[str, Any]) -> int:
        return self._iterations

    def _scale(self, demand: PhaseDemand, nodes: int) -> PhaseDemand:
        """Strong-scale a phase over ``nodes`` nodes with comm overhead."""
        import math

        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        compute_scale = 1.0 / nodes
        scaled = demand.scaled(compute_scale)
        if demand.comm_fraction > 0 and nodes > 1:
            # Communication does not shrink with the node count; it grows
            # slowly (log p) for collectives.
            comm_seconds = demand.ref_seconds * demand.comm_fraction * (
                1.0 + self.comm_scaling * math.log2(nodes)
            )
            new_total = scaled.ref_seconds * (1 - demand.comm_fraction) + comm_seconds
            comm_fraction = comm_seconds / new_total if new_total > 0 else 0.0
            from dataclasses import replace

            body_scale = (
                (1 - comm_fraction) / (1 - demand.comm_fraction)
                if demand.comm_fraction < 1
                else 0.0
            )
            scaled = replace(
                scaled,
                ref_seconds=new_total,
                comm_fraction=comm_fraction,
                core_fraction=demand.core_fraction * body_scale,
                memory_fraction=demand.memory_fraction * body_scale,
            )
        return scaled

    def setup_phases(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        return [self._scale(p, nodes) for p in self._setup]

    def phase_sequence(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        return [self._scale(p, nodes) for p in self._phases]
