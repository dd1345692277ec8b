"""Named fault profiles — the chaos vocabulary for scenarios and CI.

A profile is a factory that binds a curated set of fault specs to a
seed; campaigns reference profiles by name (``ScenarioSpec.fault_profile``)
and the service exposes them via ``chaos.inject``.  Per Sasaki & Wang's
caution about cluster-robust claims, the default profiles are
heavy-tailed: ``flaky-rack`` concentrates every hardware fault on a
quarter of the fleet and ``straggler`` poisons a single worker pattern,
rather than sprinkling uniform noise.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.faults.plan import (
    BmcTimeoutFault,
    CapWriteFault,
    DiskStallFault,
    FaultPlan,
    JournalTornWriteFault,
    NodeCrashFault,
    StaleReadFault,
    StragglerFault,
    ThermalExcursionFault,
)

__all__ = ["get_profile", "list_profiles", "register_profile", "PROFILES"]

#: name -> (description, spec factory)
PROFILES: Dict[str, Tuple[str, Callable[[], Tuple]]] = {}


def register_profile(name: str, description: str):
    """Register a fault-spec factory under a profile name."""

    def decorator(factory: Callable[[], Tuple]):
        if name in PROFILES:
            raise ValueError(f"duplicate fault profile {name!r}")
        PROFILES[name] = (description, factory)
        return factory

    return decorator


@register_profile(
    "flaky-rack",
    "Heavy-tailed hardware chaos concentrated on ~25% of nodes: BMC "
    "timeouts/stale reads, failed and partial cap writes, mid-job "
    "crashes, thermal excursions.",
)
def _flaky_rack():
    return (
        BmcTimeoutFault(probability=0.10, node_fraction=0.25),
        StaleReadFault(probability=0.10, node_fraction=0.25),
        CapWriteFault(probability=0.15, node_fraction=0.25, partial_fraction=0.5),
        NodeCrashFault(
            probability=0.25, node_fraction=0.25, mean_delay_s=90.0, repair_time_s=600.0
        ),
        ThermalExcursionFault(probability=0.05, node_fraction=0.25, delta_c=12.0),
    )


@register_profile(
    "bmc-chaos",
    "Fleet-wide sensor/cap-write flakiness: read timeouts, stale "
    "samples, dropped cap writes.  No crashes.",
)
def _bmc_chaos():
    return (
        BmcTimeoutFault(probability=0.15),
        StaleReadFault(probability=0.15),
        CapWriteFault(probability=0.10),
    )


@register_profile(
    "node-crash",
    "Aggressive mid-job node deaths on half the fleet; exercises "
    "re-queue, quarantine/drain, and budget reclaim.",
)
def _node_crash():
    return (
        NodeCrashFault(
            probability=0.50, node_fraction=0.5, mean_delay_s=60.0, repair_time_s=300.0
        ),
    )


@register_profile(
    "straggler",
    "Tuning-evaluator chaos: straggling (delayed) and poisoned "
    "(raising) evaluations, drawn only by an evaluator wrapped in "
    "ChaoticEvaluator (no use case wraps one).",
)
def _straggler():
    return (
        StragglerFault(probability=0.20, delay_s=0.02, poison_probability=0.10),
    )


@register_profile(
    "storage-chaos",
    "Durability-layer chaos: torn write-ahead-journal appends "
    "(simulated crash mid-entry) and disk stalls on half the journal "
    "segments; exercises checksum-discard recovery and the batch "
    "fsync path.",
)
def _storage_chaos():
    return (
        JournalTornWriteFault(probability=0.05, node_fraction=0.5, torn_fraction=0.5),
        DiskStallFault(probability=0.10, node_fraction=0.5, stall_s=0.002),
    )


@register_profile(
    "all",
    "Every hardware/evaluator fault kind at moderate rates — the "
    "kitchen-sink conformance profile (storage chaos lives in "
    "'storage-chaos', which needs a journal to bite).",
)
def _all():
    return (
        BmcTimeoutFault(probability=0.05, node_fraction=0.5),
        StaleReadFault(probability=0.05, node_fraction=0.5),
        CapWriteFault(probability=0.08, node_fraction=0.5, partial_fraction=0.3),
        NodeCrashFault(
            probability=0.15, node_fraction=0.5, mean_delay_s=120.0, repair_time_s=600.0
        ),
        ThermalExcursionFault(probability=0.03, node_fraction=0.5, delta_c=10.0),
        StragglerFault(probability=0.10, delay_s=0.01, poison_probability=0.05),
    )


def get_profile(name: str, seed: int = 0, enabled: bool = True) -> FaultPlan:
    """Instantiate a named profile as a seeded :class:`FaultPlan`."""
    if name not in PROFILES:
        raise KeyError(
            f"unknown fault profile {name!r}; known: {sorted(PROFILES)}"
        )
    _, factory = PROFILES[name]
    return FaultPlan(
        faults=tuple(factory()), seed=int(seed), enabled=bool(enabled), name=name
    )


def list_profiles() -> List[Dict[str, str]]:
    """Name + description for every registered profile (sorted)."""
    return [
        {"name": name, "description": PROFILES[name][0]}
        for name in sorted(PROFILES)
    ]
