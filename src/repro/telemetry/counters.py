"""Counter snapshots and accumulators.

Runtimes and resource managers never see a phase execution directly —
they read hardware counters before and after an interval and derive
rates.  :class:`CounterSnapshot` is one such reading;
:class:`TelemetryAccumulator` integrates phase results into job-level
aggregates (total energy, average power, average IPC, ...) the way a
job-level runtime reports them upward to the resource manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.telemetry.metrics import derived_metrics

__all__ = ["CounterSnapshot", "TelemetryAccumulator"]


@dataclass(frozen=True)
class CounterSnapshot:
    """A point-in-time reading of the monotonically increasing counters."""

    time_s: float
    energy_j: float
    instructions: float
    cycles: float
    flop: float

    def delta(self, later: "CounterSnapshot") -> Dict[str, float]:
        """Derive interval metrics between this snapshot and a later one."""
        dt = later.time_s - self.time_s
        if dt < 0:
            raise ValueError("later snapshot precedes this one")
        if dt == 0:
            return {"runtime_s": 0.0}
        d_energy = later.energy_j - self.energy_j
        d_instr = later.instructions - self.instructions
        d_cycles = later.cycles - self.cycles
        d_flop = later.flop - self.flop
        measured = {
            "runtime_s": dt,
            "energy_j": d_energy,
            "power_w": d_energy / dt,
            "ipc": d_instr / d_cycles if d_cycles > 0 else 0.0,
            "flops": d_flop / dt,
        }
        measured.update(derived_metrics(measured))
        return measured


@dataclass
class TelemetryAccumulator:
    """Accumulates per-phase results into job-level aggregates."""

    runtime_s: float = 0.0
    energy_j: float = 0.0
    flop: float = 0.0
    weighted_ipc: float = 0.0
    weighted_freq: float = 0.0
    capped_seconds: float = 0.0
    phase_count: int = 0
    per_region: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def record_phase(
        self,
        name: str,
        duration_s: float,
        power_w: float,
        ipc: float,
        flops: float,
        frequency_ghz: float,
        power_capped: bool = False,
        wait_name: str = "",
        wait_s: float = 0.0,
        wait_power_w: float = 0.0,
    ) -> None:
        """Fold one executed phase into the aggregates, then the MPI wait
        that followed it when ``wait_s`` > 0.

        The wait counts as a phase of its own, region ``wait_name``, drawing
        ``wait_power_w`` at the phase's frequency with an IPC of 0.05, no
        FLOPs and no cap; every aggregate adds the phase, then the wait.
        """
        if duration_s < 0 or power_w < 0:
            raise ValueError("duration and power must be >= 0")
        per_region = self.per_region
        energy = power_w * duration_s
        self.runtime_s += duration_s
        self.energy_j += energy
        self.flop += flops * duration_s
        self.weighted_ipc += ipc * duration_s
        self.weighted_freq += frequency_ghz * duration_s
        if power_capped:
            self.capped_seconds += duration_s
        self.phase_count += 1
        region = per_region.get(name)
        if region is None:
            region = per_region[name] = {"runtime_s": 0.0, "energy_j": 0.0, "count": 0.0}
        region["runtime_s"] += duration_s
        region["energy_j"] += energy
        region["count"] += 1.0
        if not wait_s > 0:
            return

        if wait_power_w < 0:
            raise ValueError("duration and power must be >= 0")
        energy = wait_power_w * wait_s
        self.runtime_s += wait_s
        self.energy_j += energy
        # A wait retires no FLOPs; the 0 x wait term keeps an infinite wait's NaN.
        self.flop += 0.0 * wait_s
        self.weighted_ipc += 0.05 * wait_s
        self.weighted_freq += frequency_ghz * wait_s
        self.phase_count += 1
        region = per_region.get(wait_name)
        if region is None:
            region = per_region[wait_name] = {"runtime_s": 0.0, "energy_j": 0.0, "count": 0.0}
        region["runtime_s"] += wait_s
        region["energy_j"] += energy
        region["count"] += 1.0

    # -- aggregates ------------------------------------------------------
    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.runtime_s if self.runtime_s > 0 else 0.0

    @property
    def average_ipc(self) -> float:
        return self.weighted_ipc / self.runtime_s if self.runtime_s > 0 else 0.0

    @property
    def average_frequency_ghz(self) -> float:
        return self.weighted_freq / self.runtime_s if self.runtime_s > 0 else 0.0

    @property
    def average_flops(self) -> float:
        return self.flop / self.runtime_s if self.runtime_s > 0 else 0.0

    # No src caller; kept for §2.2 metric vocabulary.
    def as_metrics(self) -> Dict[str, float]:  # repro-lint: disable=RL006
        """Export the aggregates in the canonical metric vocabulary."""
        measured = {
            "runtime_s": self.runtime_s,
            "energy_j": self.energy_j,
            "power_w": self.average_power_w,
            "ipc": self.average_ipc,
            "flops": self.average_flops,
            "frequency_ghz": self.average_frequency_ghz,
        }
        measured.update(derived_metrics(measured))
        return measured

    def merge(self, other: "TelemetryAccumulator") -> "TelemetryAccumulator":
        """Combine two accumulators (e.g. across ranks or jobs)."""
        merged = TelemetryAccumulator(
            runtime_s=self.runtime_s + other.runtime_s,
            energy_j=self.energy_j + other.energy_j,
            flop=self.flop + other.flop,
            weighted_ipc=self.weighted_ipc + other.weighted_ipc,
            weighted_freq=self.weighted_freq + other.weighted_freq,
            capped_seconds=self.capped_seconds + other.capped_seconds,
            phase_count=self.phase_count + other.phase_count,
        )
        for src in (self.per_region, other.per_region):
            for name, stats in src.items():
                region = merged.per_region.setdefault(
                    name, {"runtime_s": 0.0, "energy_j": 0.0, "count": 0.0}
                )
                for key, value in stats.items():
                    region[key] += value
        return merged
