"""Deterministic fault injection and chaos profiles.

``repro.faults`` seats typed, replayable faults at the Power API / BMC
boundary, the write-ahead journal and, through
:class:`~repro.faults.injector.ChaoticEvaluator`, a wrapped tuning
evaluator:

- :mod:`repro.faults.plan` — frozen :class:`FaultPlan` / fault specs,
  JSON round-trippable.
- :mod:`repro.faults.injector` — the :class:`FaultInjector` drawing
  per-``(kind, entity)`` RNG streams, plus the process-global
  ``install()`` / ``active()`` / ``injected()`` hook instrumented code
  checks.
- :mod:`repro.faults.profiles` — named profiles (``flaky-rack``,
  ``bmc-chaos``, ``node-crash``, ``straggler``, ``storage-chaos``,
  ``all``) usable as scenario axes and service commands.
- :mod:`repro.faults.conformance` — the QA invariant battery (imported
  explicitly, not re-exported here, to keep this package importable
  from the hardware layer without cycles).
"""

from repro.faults.injector import (
    ChaoticEvaluator,
    FaultInjector,
    active,
    clear,
    injected,
    install,
)
from repro.faults.plan import (
    BmcTimeoutFault,
    CapWriteFault,
    DiskStallFault,
    FaultPlan,
    FaultSpec,
    JournalTornWriteFault,
    NodeCrashFault,
    StaleReadFault,
    StragglerFault,
    ThermalExcursionFault,
    fault_from_dict,
)
from repro.faults.profiles import get_profile, list_profiles, register_profile

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "BmcTimeoutFault",
    "StaleReadFault",
    "CapWriteFault",
    "NodeCrashFault",
    "ThermalExcursionFault",
    "StragglerFault",
    "JournalTornWriteFault",
    "DiskStallFault",
    "fault_from_dict",
    "FaultInjector",
    "ChaoticEvaluator",
    "install",
    "active",
    "clear",
    "injected",
    "get_profile",
    "list_profiles",
    "register_profile",
]
