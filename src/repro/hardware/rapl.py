"""RAPL-style power capping and energy counter interface.

The paper's node layer exposes exactly two hardware power controls that
every higher layer relies on (Table 1): *power capping* (RAPL) and *DVFS*.
This module reproduces the RAPL interface shape used by GEOPM, Conductor,
COUNTDOWN and MERIC:

* per-domain (``package-N`` / ``dram-N``) power limits with an averaging
  time window,
* monotonically increasing energy counters that wrap around like the
  32-bit MSR counters do,
* a minimum sampling interval below which energy readings are too noisy
  to use (MERIC's "at least 100 power samples / 100 ms region" rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["RaplDomain", "RaplInterface", "PowerSample"]

#: Wrap-around value of the simulated energy counter, in joules.  Real MSRs
#: wrap at 2^32 energy units (~262144 J at the common 61 uJ resolution).
ENERGY_COUNTER_WRAP_J = 262144.0

#: Default RAPL averaging window (seconds).
DEFAULT_WINDOW_S = 1.0

#: Minimum interval between energy reads for a meaningful power estimate.
MIN_SAMPLE_INTERVAL_S = 0.1


@dataclass(frozen=True)
class PowerSample:
    """A derived power reading over an interval."""

    start_time_s: float
    end_time_s: float
    energy_j: float

    @property
    def interval_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def watts(self) -> float:
        if self.interval_s <= 0:
            return 0.0
        return self.energy_j / self.interval_s

    @property
    def reliable(self) -> bool:
        """True when the interval is long enough for a trustworthy reading."""
        return self.interval_s >= MIN_SAMPLE_INTERVAL_S


class RaplDomain:
    """One RAPL power domain (a package or its DRAM plane)."""

    def __init__(
        self,
        name: str,
        min_limit_w: float,
        max_limit_w: float,
        default_limit_w: Optional[float] = None,
    ):
        if min_limit_w <= 0 or max_limit_w <= 0 or min_limit_w > max_limit_w:
            raise ValueError("require 0 < min_limit <= max_limit")
        self.name = name
        self.min_limit_w = float(min_limit_w)
        self.max_limit_w = float(max_limit_w)
        self._limit_w = float(default_limit_w) if default_limit_w is not None else float(max_limit_w)
        self._window_s = DEFAULT_WINDOW_S
        self._energy_j = 0.0
        self._wraps = 0
        self._limit_enabled = default_limit_w is not None

    # -- power limit ------------------------------------------------------
    @property
    def limit_w(self) -> float:
        return self._limit_w

    @property
    def window_s(self) -> float:
        return self._window_s

    def set_limit(self, watts: float, window_s: float = DEFAULT_WINDOW_S) -> float:
        """Set the power limit; it is clamped into the domain's valid range."""
        if window_s <= 0:
            raise ValueError("window must be positive")
        clamped = min(max(float(watts), self.min_limit_w), self.max_limit_w)
        self._limit_w = clamped
        self._window_s = float(window_s)
        self._limit_enabled = True
        return clamped

    def clear_limit(self) -> None:
        """Disable the power limit (back to the domain maximum)."""
        self._limit_w = self.max_limit_w
        self._limit_enabled = False

    # -- energy counter ----------------------------------------------------
    def accumulate_energy(self, joules: float) -> None:
        """Add consumed energy to the counter (wrapping like the MSR does).

        One ``divmod`` takes every wrap at once.  The wrap value is a power
        of two, so the remainder is exactly what subtracting it once per
        wrap would leave.
        """
        if joules < 0:
            raise ValueError("energy must be >= 0")
        energy = self._energy_j + joules
        if energy >= ENERGY_COUNTER_WRAP_J:
            if energy == math.inf:
                raise ValueError("energy must be finite")
            wraps, energy = divmod(energy, ENERGY_COUNTER_WRAP_J)
            self._wraps += int(wraps)
        self._energy_j = energy

    def read_energy_j(self) -> float:
        """Raw (wrapping) counter value, as software would read it."""
        return self._energy_j

    def total_energy_j(self) -> float:
        """Unwrapped total energy (ground truth, for verification)."""
        return self._energy_j + self._wraps * ENERGY_COUNTER_WRAP_J

    @staticmethod
    def delta_energy_j(before: float, after: float) -> float:
        """Energy consumed between two raw reads, handling one wrap."""
        if after >= before:
            return after - before
        return after + ENERGY_COUNTER_WRAP_J - before


class RaplInterface:
    """The per-node collection of RAPL domains.

    Provides the `package-N` and `dram-N` namespace used by node-level
    managers and job-level runtimes, plus convenience methods to cap the
    whole node and to derive power from two energy reads.
    """

    def __init__(self, domains: Dict[str, RaplDomain]):
        if not domains:
            raise ValueError("at least one RAPL domain is required")
        self._domains = dict(domains)

    @classmethod
    def for_node(
        cls,
        n_packages: int,
        package_min_w: float,
        package_max_w: float,
        dram_max_w: float = 40.0,
    ) -> "RaplInterface":
        """Build the standard package/dram domain set for a node."""
        if n_packages < 1:
            raise ValueError("n_packages must be >= 1")
        domains: Dict[str, RaplDomain] = {}
        for i in range(n_packages):
            domains[f"package-{i}"] = RaplDomain(
                f"package-{i}", package_min_w, package_max_w
            )
            domains[f"dram-{i}"] = RaplDomain(f"dram-{i}", dram_max_w * 0.2, dram_max_w)
        return cls(domains)

    # -- domain access -----------------------------------------------------
    def domain(self, name: str) -> RaplDomain:
        if name not in self._domains:
            raise KeyError(f"unknown RAPL domain {name!r}; have {sorted(self._domains)}")
        return self._domains[name]

    def package_domains(self) -> list[RaplDomain]:
        return [d for name, d in sorted(self._domains.items()) if name.startswith("package-")]

    # -- node-level helpers --------------------------------------------------
    def set_node_package_limit(self, total_watts: float, window_s: float = DEFAULT_WINDOW_S) -> float:
        """Split a node-level package budget evenly across packages.

        Returns the total limit actually applied after per-domain clamping.
        """
        packages = self.package_domains()
        share = total_watts / len(packages)
        applied = 0.0
        for dom in packages:
            applied += dom.set_limit(share, window_s)
        return applied

    def clear_all_limits(self) -> None:
        for dom in self._domains.values():
            dom.clear_limit()

    # No src caller; kept for §2.1 power over a time window.
    def read_all_energy_j(self) -> Dict[str, float]:  # repro-lint: disable=RL006
        return {name: dom.read_energy_j() for name, dom in self._domains.items()}

    def total_energy_j(self) -> float:
        return sum(dom.total_energy_j() for dom in self._domains.values())

    # No src caller; kept for §2.1 power over a time window.
    def derive_power(  # repro-lint: disable=RL006
        self, before: Dict[str, float], after: Dict[str, float], interval_s: float
    ) -> PowerSample:
        """Derive a node power sample from two raw counter snapshots."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        energy = 0.0
        for name, end in after.items():
            start = before.get(name, end)
            energy += RaplDomain.delta_energy_j(start, end)
        return PowerSample(start_time_s=0.0, end_time_s=interval_s, energy_j=energy)
