"""Typed, serialisable fault plans.

A :class:`FaultPlan` is the declarative half of the fault-injection
subsystem: a frozen collection of typed fault specs (BMC read timeouts,
stale sensor reads, failed/partial cap writes, node crashes, thermal
excursions, straggler/poisoned evaluators) plus the seed the injector
derives its per-fault RNG streams from.  Plans round-trip through plain
dictionaries/JSON so they can ride inside scenario specs, service
commands, and CI configuration.

Two knobs matter for realism (see ISSUE 6 / Sasaki & Wang):

``probability``
    Per-opportunity firing probability (per sensor read, per cap write,
    per launched job, ...).

``node_fraction``
    The fraction of nodes *eligible* for the fault at all.  Eligibility
    is decided by a stable hash of ``(seed, kind, hostname)`` — not by
    consuming RNG — so a plan with ``node_fraction=0.25`` concentrates
    its chaos on one deterministic "flaky rack" instead of spreading
    uniform noise over the fleet.  Heavy-tailed failure patterns are the
    ones that break naive robustness claims.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Sequence, Tuple, Type

__all__ = [
    "FaultSpec",
    "BmcTimeoutFault",
    "StaleReadFault",
    "CapWriteFault",
    "NodeCrashFault",
    "ThermalExcursionFault",
    "StragglerFault",
    "JournalTornWriteFault",
    "DiskStallFault",
    "FaultPlan",
    "fault_from_dict",
]


@dataclass(frozen=True)
class FaultSpec:
    """Base class for one typed fault: probability + eligible-node slice."""

    probability: float = 0.0
    node_fraction: float = 1.0

    #: Dispatch tag; every concrete subclass overrides this.
    kind = "base"

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.probability) <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not 0.0 <= float(self.node_fraction) <= 1.0:
            raise ValueError(f"node_fraction must be in [0, 1], got {self.node_fraction}")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        for spec_field in fields(self):
            out[spec_field.name] = getattr(self, spec_field.name)
        return out


@dataclass(frozen=True)
class BmcTimeoutFault(FaultSpec):
    """A BMC sensor read times out: last-known value, ``healthy=False``."""

    kind = "bmc_timeout"


@dataclass(frozen=True)
class StaleReadFault(FaultSpec):
    """A BMC sensor read silently returns the *previous* sample."""

    kind = "bmc_stale"


@dataclass(frozen=True)
class CapWriteFault(FaultSpec):
    """A power-cap write fails outright or lands only partially.

    ``partial_fraction == 0`` drops the write (the old limit stays in
    force); ``0 < partial_fraction < 1`` moves the limit only that far
    from the previous value toward the requested one.
    """

    partial_fraction: float = 0.0
    kind = "cap_write"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= float(self.partial_fraction) < 1.0:
            raise ValueError(
                f"partial_fraction must be in [0, 1), got {self.partial_fraction}"
            )


@dataclass(frozen=True)
class NodeCrashFault(FaultSpec):
    """An allocated node dies mid-job after an exponential delay."""

    mean_delay_s: float = 120.0
    repair_time_s: float = 900.0
    kind = "node_crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if float(self.mean_delay_s) <= 0.0:
            raise ValueError(f"mean_delay_s must be positive, got {self.mean_delay_s}")
        if float(self.repair_time_s) <= 0.0:
            raise ValueError(f"repair_time_s must be positive, got {self.repair_time_s}")


@dataclass(frozen=True)
class ThermalExcursionFault(FaultSpec):
    """A package on an eligible node spikes ``delta_c`` degrees hotter."""

    delta_c: float = 15.0
    kind = "thermal"

    def __post_init__(self) -> None:
        super().__post_init__()
        if float(self.delta_c) <= 0.0:
            raise ValueError(f"delta_c must be positive, got {self.delta_c}")


@dataclass(frozen=True)
class StragglerFault(FaultSpec):
    """A tuning evaluation straggles (sleeps) or is poisoned (raises).

    ``probability`` is the straggle probability; ``poison_probability``
    is drawn from the same uniform sample, so the two are mutually
    exclusive per evaluation.  ``node_fraction`` is ignored — evaluator
    workers are not cluster nodes.
    """

    delay_s: float = 0.05
    poison_probability: float = 0.0
    kind = "straggler"

    def __post_init__(self) -> None:
        super().__post_init__()
        if float(self.delay_s) < 0.0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if not 0.0 <= float(self.poison_probability) <= 1.0:
            raise ValueError(
                f"poison_probability must be in [0, 1], got {self.poison_probability}"
            )
        if float(self.poison_probability) + float(self.probability) > 1.0:
            raise ValueError("probability + poison_probability must not exceed 1")


@dataclass(frozen=True)
class JournalTornWriteFault(FaultSpec):
    """A write-ahead journal append is torn mid-entry (simulated crash).

    Only a prefix of the entry's bytes — ``torn_fraction`` of them, at
    least one and never all — reaches the segment before the writer
    dies (:class:`repro.durability.JournalTornWriteError`).  Recovery
    must discard the torn tail by checksum and keep every completed
    entry.  ``node_fraction`` slices over segment names, so chaos can
    target one shard's journal.
    """

    torn_fraction: float = 0.5
    kind = "journal_torn_write"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < float(self.torn_fraction) < 1.0:
            raise ValueError(
                f"torn_fraction must be in (0, 1), got {self.torn_fraction}"
            )


@dataclass(frozen=True)
class DiskStallFault(FaultSpec):
    """A journal append stalls ``stall_s`` seconds before completing.

    Models a saturated or degraded storage device: the write eventually
    lands intact, but the fsync path blocks — what the durability layer's
    batch fsync policy is designed to amortise.
    """

    stall_s: float = 0.01
    kind = "disk_stall"

    def __post_init__(self) -> None:
        super().__post_init__()
        if float(self.stall_s) < 0.0:
            raise ValueError(f"stall_s must be non-negative, got {self.stall_s}")


_FAULT_TYPES: Dict[str, Type[FaultSpec]] = {
    cls.kind: cls
    for cls in (
        BmcTimeoutFault,
        StaleReadFault,
        CapWriteFault,
        NodeCrashFault,
        ThermalExcursionFault,
        StragglerFault,
        JournalTornWriteFault,
        DiskStallFault,
    )
}


def fault_from_dict(data: Mapping[str, Any]) -> FaultSpec:
    """Rebuild one typed fault spec from its ``to_dict`` form."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind not in _FAULT_TYPES:
        raise ValueError(
            f"unknown fault kind {kind!r}; known: {sorted(_FAULT_TYPES)}"
        )
    return _FAULT_TYPES[kind](**payload)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of fault specs.

    ``enabled=False`` keeps the plan inert: hot paths see a single
    attribute check and no RNG is ever consumed, which is what the
    near-zero-overhead bench (`bench_perf_chaos.py`) verifies.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    enabled: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"faults must be FaultSpec instances, got {spec!r}")
        kinds = [spec.kind for spec in self.faults]
        if len(kinds) != len(set(kinds)):
            raise ValueError(f"duplicate fault kinds in plan: {sorted(kinds)}")

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(spec.kind for spec in self.faults)

    def spec(self, kind: str) -> FaultSpec:
        for spec_ in self.faults:
            if spec_.kind == kind:
                return spec_
        raise KeyError(kind)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": int(self.seed),
            "enabled": bool(self.enabled),
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        raw_faults: Sequence[Mapping[str, Any]] = data.get("faults", ())
        return cls(
            faults=tuple(fault_from_dict(item) for item in raw_faults),
            seed=int(data.get("seed", 0)),
            enabled=bool(data.get("enabled", True)),
            name=str(data.get("name", "")),
        )
