"""Out-of-band management interfaces: IPMI-style sensors and a Redfish facade.

Production sites meter and cap nodes not only in-band (RAPL, the Power
API) but also out-of-band through the baseboard management controller —
IPMI sensor reads and the DMTF Redfish REST model the paper cites.  The
out-of-band path has different fidelity: readings are quantised (1 W),
sampled at a slow fixed cadence, cover the *whole* node (board, fans,
VRs — not just RAPL domains), and the BMC enforces its own node power
limit independent of whatever the in-band runtime is doing.

:class:`BmcEndpoint` models one node's BMC; :class:`RedfishService`
exposes a cluster of BMCs behind Redfish-style resource paths
(``/redfish/v1/Chassis/<node>/Power``) with GET/PATCH semantics, which
is the shape a site-level monitoring or power-capping service consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.faults import injector as _faults
from repro.hardware.cluster import Cluster
from repro.hardware.node import Node

__all__ = ["SensorReading", "SensorSpec", "BmcEndpoint", "RedfishService"]


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one BMC sensor."""

    name: str
    units: str
    #: Quantisation step of the reported value (e.g. 1 W, 0.5 degC).
    resolution: float
    #: Lower/upper critical thresholds (IPMI-style), if any.
    lower_critical: Optional[float] = None
    upper_critical: Optional[float] = None


@dataclass(frozen=True)
class SensorReading:
    """One out-of-band sensor sample.

    ``stale`` marks a silently-repeated previous sample; ``error`` is a
    short fault tag (e.g. ``"timeout"``) when the BMC could not produce
    a fresh value — degraded reads are reported in-band, never raised.
    """

    sensor: str
    time_s: float
    value: float
    units: str
    healthy: bool = True
    stale: bool = False
    error: Optional[str] = None


@dataclass
class _PowerMetrics:
    """Rolling interval statistics the Redfish ``PowerMetrics`` object reports."""

    interval_s: float = 60.0
    samples: List[tuple] = field(default_factory=list)

    def record(self, time_s: float, power_w: float) -> None:
        self.samples.append((time_s, power_w))
        cutoff = time_s - self.interval_s
        self.samples = [(t, p) for t, p in self.samples if t >= cutoff]

    def as_dict(self) -> Dict[str, float]:
        if not self.samples:
            return {
                "IntervalInMin": self.interval_s / 60.0,
                "MinConsumedWatts": 0.0,
                "MaxConsumedWatts": 0.0,
                "AverageConsumedWatts": 0.0,
            }
        values = np.asarray([p for _, p in self.samples], dtype=float)
        return {
            "IntervalInMin": self.interval_s / 60.0,
            "MinConsumedWatts": float(values.min()),
            "MaxConsumedWatts": float(values.max()),
            "AverageConsumedWatts": float(values.mean()),
        }


class BmcEndpoint:
    """The out-of-band management controller of one node."""

    #: Default sensor inventory of a dual-socket HPC node.
    DEFAULT_SENSORS = (
        SensorSpec("board_power", "W", resolution=1.0, upper_critical=None),
        SensorSpec("inlet_temp", "degC", resolution=0.5, upper_critical=45.0),
        SensorSpec("exhaust_temp", "degC", resolution=0.5, upper_critical=75.0),
        SensorSpec("cpu_temp", "degC", resolution=0.5, upper_critical=95.0),
    )

    def __init__(
        self,
        node: Node,
        sample_interval_s: float = 1.0,
        metrics_interval_s: float = 60.0,
        ambient_c: float = 22.0,
    ):
        if sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        self.node = node
        self.sample_interval_s = float(sample_interval_s)
        self.ambient_c = float(ambient_c)
        self.sensors: Dict[str, SensorSpec] = {s.name: s for s in self.DEFAULT_SENSORS}
        self.readings: List[SensorReading] = []
        self._metrics = _PowerMetrics(interval_s=metrics_interval_s)
        self._last_sample_s: Optional[float] = None
        #: Last successfully-read value per sensor — what a timed-out or
        #: stale read falls back to.
        self._last_values: Dict[str, float] = {}
        #: BMC-enforced node power limit (None = unlimited).  Kept separate
        #: from the in-band cap so tests can check the two surfaces agree.
        self._power_limit_w: Optional[float] = None
        self.power_limit_exception = "NoAction"

    # -- sensors ----------------------------------------------------------
    def _quantise(self, spec: SensorSpec, value: float) -> float:
        return float(np.round(value / spec.resolution) * spec.resolution)

    def _raw_value(self, sensor: str) -> float:
        node = self.node
        if sensor == "board_power":
            return node.current_power_w if not node.is_free else node.idle_power_w()
        if sensor == "inlet_temp":
            return self.ambient_c
        if sensor == "cpu_temp":
            return node.max_temperature_c()
        if sensor == "exhaust_temp":
            # Exhaust air warms with the node's dissipated power.
            power = node.current_power_w if not node.is_free else node.idle_power_w()
            return self.ambient_c + 0.025 * power
        raise KeyError(f"unknown sensor {sensor!r}")

    def read_sensor(self, sensor: str, time_s: float = 0.0) -> SensorReading:
        """Read one sensor out-of-band (quantised, threshold-checked)."""
        if sensor not in self.sensors:
            raise KeyError(f"unknown sensor {sensor!r}; have {sorted(self.sensors)}")
        spec = self.sensors[sensor]

        inj = _faults.active()
        fault = None
        if inj is not None and inj.enabled:
            fault = inj.sensor_fault(self.node.hostname, sensor)
        if fault == "timeout":
            # The read never completes: report the last-known value (0.0
            # if there is none) flagged unhealthy, instead of raising.
            reading = SensorReading(
                sensor=sensor,
                time_s=float(time_s),
                value=self._last_values.get(sensor, 0.0),
                units=spec.units,
                healthy=False,
                error="timeout",
            )
            self.readings.append(reading)
            return reading
        if fault == "stale" and sensor in self._last_values:
            reading = SensorReading(
                sensor=sensor,
                time_s=float(time_s),
                value=self._last_values[sensor],
                units=spec.units,
                stale=True,
            )
            self.readings.append(reading)
            return reading

        value = self._quantise(spec, self._raw_value(sensor))
        healthy = True
        if spec.upper_critical is not None and value > spec.upper_critical:
            healthy = False
        if spec.lower_critical is not None and value < spec.lower_critical:
            healthy = False
        reading = SensorReading(
            sensor=sensor, time_s=float(time_s), value=value, units=spec.units, healthy=healthy
        )
        self._last_values[sensor] = value
        self.readings.append(reading)
        return reading

    def sample(self, time_s: float) -> List[SensorReading]:
        """Take one periodic sample of every sensor (respecting the cadence).

        Returns an empty list when called faster than the BMC's sampling
        interval — out-of-band telemetry cannot be polled arbitrarily fast.
        """
        if self._last_sample_s is not None and (
            time_s - self._last_sample_s < self.sample_interval_s - 1e-9
        ):
            return []
        self._last_sample_s = float(time_s)
        out = [self.read_sensor(name, time_s) for name in self.sensors]
        board = next(r for r in out if r.sensor == "board_power")
        self._metrics.record(time_s, board.value)
        return out

    # -- power limiting (Redfish PowerLimit / IPMI DCMI power cap) ------------

    def set_power_limit(self, watts: Optional[float]) -> Optional[float]:
        """Apply (or clear) the BMC node power limit; returns the enforced value."""
        if watts is None:
            self._power_limit_w = None
            self.node.set_power_cap(None)
            return None
        if watts <= 0:
            raise ValueError("power limit must be positive")
        inj = _faults.active()
        if inj is not None and inj.enabled:
            target = inj.cap_write(self.node.hostname, float(watts), self._power_limit_w)
            if target is None:
                # Dropped write with no prior limit: the chassis stays
                # uncapped and the caller sees the (unchanged) state.
                return self._power_limit_w
            watts = target
        applied = self.node.set_power_cap(float(watts))
        self._power_limit_w = applied
        return applied

    # -- Redfish resource rendering ---------------------------------------------
    def power_resource(self) -> Dict[str, object]:
        """The Redfish ``Power`` resource of this chassis."""
        node = self.node
        power_now = node.current_power_w if not node.is_free else node.idle_power_w()
        return {
            "@odata.type": "#Power.v1_5_0.Power",
            "Id": "Power",
            "PowerControl": [
                {
                    "Name": "Node Power Control",
                    "PowerConsumedWatts": float(np.round(power_now)),
                    "PowerCapacityWatts": node.max_power_w(),
                    "PowerLimit": {
                        "LimitInWatts": self._power_limit_w,
                        "LimitException": self.power_limit_exception,
                    },
                    "PowerMetrics": self._metrics.as_dict(),
                }
            ],
        }

    def thermal_resource(self) -> Dict[str, object]:
        """The Redfish ``Thermal`` resource of this chassis."""
        rows = []
        for name in ("inlet_temp", "exhaust_temp", "cpu_temp"):
            spec = self.sensors[name]
            value = self._quantise(spec, self._raw_value(name))
            rows.append(
                {
                    "Name": name,
                    "ReadingCelsius": value,
                    "UpperThresholdCritical": spec.upper_critical,
                    "Status": {
                        "Health": "OK"
                        if spec.upper_critical is None or value <= spec.upper_critical
                        else "Critical"
                    },
                }
            )
        return {"@odata.type": "#Thermal.v1_6_0.Thermal", "Id": "Thermal", "Temperatures": rows}


class RedfishService:
    """A Redfish-like service endpoint over a cluster of BMCs.

    Only the small slice of the Redfish data model that site power
    management actually uses is exposed: the chassis collection, each
    chassis' ``Power`` and ``Thermal`` resources, and PATCHing
    ``PowerControl[0].PowerLimit.LimitInWatts``.
    """

    ROOT = "/redfish/v1"

    def __init__(self, cluster: Cluster, sample_interval_s: float = 1.0):
        self.cluster = cluster
        self.bmcs: Dict[str, BmcEndpoint] = {
            node.hostname: BmcEndpoint(node, sample_interval_s=sample_interval_s)
            for node in cluster.nodes
        }

    # -- endpoint helpers ------------------------------------------------------
    def bmc(self, hostname: str) -> BmcEndpoint:
        if hostname not in self.bmcs:
            raise KeyError(f"unknown chassis {hostname!r}")
        return self.bmcs[hostname]

    def chassis_paths(self) -> List[str]:
        return [f"{self.ROOT}/Chassis/{hostname}" for hostname in sorted(self.bmcs)]

    def get(self, path: str) -> Dict[str, object]:
        """GET a resource by path; raises ``KeyError`` for unknown paths."""
        parts = [p for p in path.split("/") if p]
        if parts[:2] != ["redfish", "v1"]:
            raise KeyError(f"unknown path {path!r}")
        rest = parts[2:]
        if not rest:
            return {
                "@odata.type": "#ServiceRoot.v1_9_0.ServiceRoot",
                "Chassis": {"@odata.id": f"{self.ROOT}/Chassis"},
            }
        if rest == ["Chassis"]:
            return {
                "@odata.type": "#ChassisCollection.ChassisCollection",
                "Members": [{"@odata.id": p} for p in self.chassis_paths()],
                "Members@odata.count": len(self.bmcs),
            }
        if rest[0] == "Chassis" and len(rest) >= 2:
            bmc = self.bmc(rest[1])
            if len(rest) == 2:
                return {
                    "@odata.type": "#Chassis.v1_14_0.Chassis",
                    "Id": rest[1],
                    "Power": {"@odata.id": f"{self.ROOT}/Chassis/{rest[1]}/Power"},
                    "Thermal": {"@odata.id": f"{self.ROOT}/Chassis/{rest[1]}/Thermal"},
                }
            if rest[2] == "Power":
                return bmc.power_resource()
            if rest[2] == "Thermal":
                return bmc.thermal_resource()
        raise KeyError(f"unknown path {path!r}")

    # -- site-level sweeps ---------------------------------------------------------
    def system_power_w(self) -> float:
        """Sum of the quantised board-power readings across the cluster."""
        total = 0.0
        for bmc in self.bmcs.values():
            total += bmc.read_sensor("board_power").value
        return total

    # No src caller; kept for §2.1 system power cap baseline.
    def apply_system_power_cap(  # repro-lint: disable=RL006
        self, total_watts: float
    ) -> Dict[str, float]:
        """Split a system cap evenly over the chassis (the facility baseline)."""
        if total_watts <= 0:
            raise ValueError("total_watts must be positive")
        share = total_watts / len(self.bmcs)
        return {
            hostname: float(bmc.set_power_limit(share) or share)
            for hostname, bmc in sorted(self.bmcs.items())
        }

    def outlier_chassis(self, threshold_sigma: float = 2.0) -> List[str]:
        """Chassis whose board power deviates from the fleet mean (§3.2.2).

        Returns hostnames more than ``threshold_sigma`` standard deviations
        away from the mean reading — the "node outlier detection" input the
        SLURM+GEOPM use case feeds to the resource manager.
        """
        if threshold_sigma <= 0:
            raise ValueError("threshold_sigma must be positive")
        # Timed-out reads carry no usable value — exclude them instead of
        # letting a stuck 0 W sample masquerade as an outlier.
        readings = {
            h: r.value
            for h, bmc in self.bmcs.items()
            for r in (bmc.read_sensor("board_power"),)
            if r.error is None
        }
        values = np.asarray(list(readings.values()), dtype=float)
        if values.size < 2 or float(values.std()) == 0.0:
            return []
        mean, std = float(values.mean()), float(values.std())
        return sorted(
            h for h, v in readings.items() if abs(v - mean) > threshold_sigma * std
        )
