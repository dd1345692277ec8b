"""MERIC: per-region hardware-configuration tuning (use cases 4 and 7).

MERIC (Vysocky et al.) instruments an application with regions and, for
each region, measures a sweep of hardware configurations — core
frequency, uncore frequency, thread count — then replays the best
configuration per region in production runs.  The paper notes its
practical constraint: a region must be long enough to collect ~100 RAPL
samples (~100 ms) for a reliable energy measurement.

Two pieces implement this:

* :class:`RegionConfigStore` — the per-region best-configuration table
  (the "tuning model" handed to production runs),
* :class:`MericRuntime` — the runtime that applies the stored
  configuration on region entry and restores defaults on exit, and that
  can *measure* regions when run in measurement mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.apps.mpi import MpiJobSimulator, RegionRecord
from repro.hardware.rapl import MIN_SAMPLE_INTERVAL_S
from repro.hardware.workload import PhaseDemand
from repro.runtime.base import JobRuntime, register_runtime

__all__ = ["RegionConfig", "RegionMeasurement", "RegionConfigStore", "MericRuntime"]


@dataclass(frozen=True)
class RegionConfig:
    """A hardware configuration applicable to one region."""

    core_freq_ghz: Optional[float] = None
    uncore_freq_ghz: Optional[float] = None
    threads: Optional[int] = None

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "core_freq_ghz": self.core_freq_ghz,
            "uncore_freq_ghz": self.uncore_freq_ghz,
            "threads": self.threads,
        }


@dataclass
class RegionMeasurement:
    """Accumulated measurements of one region under one configuration."""

    region: str
    config: RegionConfig
    runtime_s: float = 0.0
    energy_j: float = 0.0
    visits: int = 0

    @property
    def reliable(self) -> bool:
        """MERIC's sampling rule: the region must be long enough to measure."""
        return self.visits > 0 and (self.runtime_s / self.visits) >= MIN_SAMPLE_INTERVAL_S

    @property
    def mean_energy_j(self) -> float:
        return self.energy_j / self.visits if self.visits else 0.0

    @property
    def mean_runtime_s(self) -> float:
        return self.runtime_s / self.visits if self.visits else 0.0


class RegionConfigStore:
    """Best-configuration table per region, selectable by objective."""

    def __init__(self) -> None:
        self._measurements: Dict[Tuple[str, RegionConfig], RegionMeasurement] = {}

    def record(self, region: str, config: RegionConfig, runtime_s: float, energy_j: float) -> None:
        key = (region, config)
        meas = self._measurements.setdefault(key, RegionMeasurement(region, config))
        meas.runtime_s += runtime_s
        meas.energy_j += energy_j
        meas.visits += 1

    def measurements(self, region: Optional[str] = None) -> List[RegionMeasurement]:
        out = [m for (r, _), m in self._measurements.items() if region is None or r == region]
        return out

    def regions(self) -> List[str]:
        return sorted({r for r, _ in self._measurements})

    def best_config(
        self, region: str, objective: str = "energy_j", require_reliable: bool = True
    ) -> Optional[RegionConfig]:
        """Best measured configuration for a region under an objective."""
        if objective not in ("energy_j", "runtime_s", "edp"):
            raise ValueError("objective must be one of energy_j, runtime_s, edp")
        candidates = self.measurements(region)
        if require_reliable:
            reliable = [m for m in candidates if m.reliable]
            candidates = reliable or candidates
        if not candidates:
            return None

        def score(m: RegionMeasurement) -> float:
            if objective == "energy_j":
                return m.mean_energy_j
            if objective == "runtime_s":
                return m.mean_runtime_s
            return m.mean_energy_j * m.mean_runtime_s

        return min(candidates, key=score).config

    def tuning_table(self, objective: str = "energy_j") -> Dict[str, RegionConfig]:
        return {
            region: cfg
            for region in self.regions()
            if (cfg := self.best_config(region, objective)) is not None
        }


@register_runtime
class MericRuntime(JobRuntime):
    """Region-aware runtime: measure regions or replay tuned configurations."""

    name = "meric"
    tunable_parameters = {
        "objective": ["energy_j", "runtime_s", "edp"],
    }

    def __init__(
        self,
        region_configs: Optional[Mapping[str, RegionConfig]] = None,
        measure_config: Optional[RegionConfig] = None,
        store: Optional[RegionConfigStore] = None,
        default_config: Optional[RegionConfig] = None,
    ):
        super().__init__()
        #: Production mode: region name -> configuration to apply.
        self.region_configs: Dict[str, RegionConfig] = dict(region_configs or {})
        #: Measurement mode: the single configuration being evaluated.
        self.measure_config = measure_config
        self.store = store if store is not None else RegionConfigStore()
        self.default_config = default_config or RegionConfig()
        self._saved: Dict[str, Tuple[float, float]] = {}
        self.applied_regions = 0

    # -- knob application -------------------------------------------------------------
    def _apply(self, sim: MpiJobSimulator, config: RegionConfig) -> None:
        for node in sim.nodes:
            if node.hostname not in self._saved:
                self._saved[node.hostname] = (
                    node.packages[0].frequency_ghz,
                    node.packages[0].uncore_ghz,
                )
            if config.core_freq_ghz is not None:
                node.set_frequency(config.core_freq_ghz)
            if config.uncore_freq_ghz is not None:
                node.set_uncore_frequency(config.uncore_freq_ghz)
        if config.threads is not None:
            sim.threads_per_node = config.threads

    def _restore(self, sim: MpiJobSimulator) -> None:
        for node in sim.nodes:
            saved = self._saved.pop(node.hostname, None)
            if saved is not None:
                node.set_frequency(saved[0])
                node.set_uncore_frequency(saved[1])

    # -- hooks ---------------------------------------------------------------------------
    def on_region_enter(self, sim: MpiJobSimulator, region: PhaseDemand, iteration: int) -> None:
        config = self.measure_config or self.region_configs.get(region.name)
        if config is None:
            config = self.region_configs.get("*", None)
        if config is not None:
            self._apply(sim, config)
            self.applied_regions += 1

    def on_region_exit(
        self,
        sim: MpiJobSimulator,
        region: PhaseDemand,
        iteration: int,
        records: Sequence[RegionRecord],
    ) -> None:
        config = self.measure_config or self.region_configs.get(region.name, self.default_config)
        runtime = max((r.total_seconds for r in records), default=0.0)
        energy = sum(r.total_energy_j for r in records)
        self.store.record(region.name, config, runtime, energy)
        self._restore(sim)

    # -- reporting ------------------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        data = super().report()
        data["applied_regions"] = float(self.applied_regions)
        data["measured_regions"] = float(len(self.store.regions()))
        return data
