"""Workload demand descriptors exchanged between applications and hardware.

Applications (``repro.apps``) decompose their execution into *phases*;
each phase presents a :class:`PhaseDemand` to the hardware describing how
much work it contains and how that work responds to the hardware knobs
(core frequency, uncore frequency, thread count).  The hardware model
turns a demand plus the current knob settings into a duration, a power
draw, and derived counters (IPC, FLOPS).

The decomposition follows the standard execution-time breakdown used by
READEX/MERIC and Conductor-style runtimes:

* a **core-bound** fraction whose duration scales inversely with core
  frequency,
* a **memory/uncore-bound** fraction whose duration scales inversely with
  uncore frequency (and is insensitive to core frequency),
* a **communication/wait** fraction (MPI wait and copy time) that depends
  on the other ranks rather than on the local knobs, and
* a residual fraction (I/O, OS noise) insensitive to every knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = ["PhaseDemand"]


def _checked_ref_seconds(seconds: float) -> float:
    """``seconds`` if it is a finite duration >= 0; ValueError otherwise."""
    if not 0.0 <= seconds < math.inf:
        raise ValueError(f"ref_seconds must be finite and >= 0, got {seconds}")
    return seconds


@dataclass(frozen=True)
class PhaseDemand:
    """Per-rank resource demand of one application phase.

    Parameters
    ----------
    name:
        Human-readable phase/region name (used by region-aware runtimes
        such as MERIC).
    ref_seconds:
        Duration of the phase at the reference operating point (base
        frequency, reference uncore frequency, ``ref_threads`` threads).
    core_fraction / memory_fraction / comm_fraction:
        Fractions of ``ref_seconds`` that are core-bound, memory-bound
        and communication-bound respectively.  The knob-insensitive
        residual ``max(0, 1 - core - memory - comm)`` is ``other_fraction``.
    flops_per_second_ref:
        Useful floating-point throughput at the reference point, used to
        derive FLOPS and FLOPS/W telemetry.
    ops_per_cycle_ref:
        Retired instructions per cycle per core at the reference point,
        used to derive IPC telemetry.
    activity_factor:
        CMOS switching-activity factor of the core-bound portion
        (compute-bound code switches more logic and burns more dynamic
        power than stall-heavy code).
    dram_intensity:
        Relative DRAM traffic intensity in [0, 1]; drives DRAM power.
    serial_fraction:
        Amdahl serial fraction used for intra-node thread scaling.
    ref_threads:
        Thread count at which ``ref_seconds`` was defined.
    tags:
        Free-form metadata (e.g. ``{"mpi_call": "Allreduce"}``) consumed
        by runtimes such as COUNTDOWN.
    """

    name: str
    ref_seconds: float
    core_fraction: float = 0.6
    memory_fraction: float = 0.25
    comm_fraction: float = 0.0
    flops_per_second_ref: float = 1.0e10
    ops_per_cycle_ref: float = 1.5
    activity_factor: float = 0.9
    dram_intensity: float = 0.3
    serial_fraction: float = 0.02
    ref_threads: int = 1
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _checked_ref_seconds(self.ref_seconds)
        for attr in ("core_fraction", "memory_fraction", "comm_fraction"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1], got {value}")
        total = self.core_fraction + self.memory_fraction + self.comm_fraction
        if total > 1.0 + 1e-9:
            raise ValueError(
                "core_fraction + memory_fraction + comm_fraction must be <= 1, "
                f"got {total:.4f}"
            )
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be in [0, 1]")
        if self.ref_threads < 1:
            raise ValueError("ref_threads must be >= 1")
        if not 0.0 <= self.activity_factor <= 1.5:
            raise ValueError("activity_factor must be in [0, 1.5]")
        if not 0.0 <= self.dram_intensity <= 1.0:
            raise ValueError("dram_intensity must be in [0, 1]")
        # Computed once per demand; not a field, so ``==`` and ``repr`` skip it.
        other = 1.0 - self.core_fraction - self.memory_fraction - self.comm_fraction
        object.__setattr__(self, "other_fraction", other if other > 0.0 else 0.0)

    def scaled(self, factor: float) -> "PhaseDemand":
        """Return a copy whose reference duration is multiplied by ``factor``.

        The other fields (``tags`` the same object) and ``other_fraction``
        are copied as they are, so only the new duration is validated.
        """
        if factor < 0:
            raise ValueError("factor must be >= 0")
        ref_seconds = _checked_ref_seconds(self.ref_seconds * factor)
        copy = object.__new__(type(self))
        vars(copy).update(vars(self), ref_seconds=ref_seconds)
        return copy

    # No src caller; kept for the ``other_fraction`` check on every copy path.
    def with_tags(self, **tags: str) -> "PhaseDemand":  # repro-lint: disable=RL006
        merged = dict(self.tags)
        merged.update(tags)
        return replace(self, tags=merged)

    def thread_scaling(self, threads: int) -> float:
        """Amdahl speedup factor relative to ``ref_threads``.

        Returns the multiplier on the knob-sensitive duration when the
        phase runs with ``threads`` threads instead of ``ref_threads``.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        s = self.serial_fraction
        return (s + (1.0 - s) / threads) / (s + (1.0 - s) / self.ref_threads)
