"""Deterministic fault injector and the process-global injection point.

The injector is the imperative half of the subsystem: instrumented hot
paths (BMC reads, ``Cluster.apply_power_caps``, scheduler launches,
tuning evaluators) ask it whether a fault fires *here, now*.  Decisions
are drawn from per-``(kind, entity)`` named streams derived via
:class:`repro.sim.rng.RandomStreams`, so a chaos run replays bit-for-bit
for a fixed plan seed regardless of which component asks first.

Instrumented code reaches the injector through the module-global
:func:`active` handle::

    from repro.faults import injector as faults

    inj = faults.active()
    if inj is not None and inj.enabled:
        ...

which keeps the disabled / not-installed cost to one global read and one
branch — the overhead budget checked by ``benchmarks/bench_perf_chaos.py``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.rng import RandomStreams, stable_name_key

__all__ = [
    "FaultInjector",
    "ChaoticEvaluator",
    "install",
    "active",
    "clear",
    "injected",
]

#: Hard cap on the per-injector event log (counters are unbounded).
_EVENT_LOG_LIMIT = 512


class FaultInjector:
    """Draws fault decisions for one :class:`FaultPlan`, deterministically."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.streams = RandomStreams(plan.seed).spawn("faults")
        self._specs: Dict[str, FaultSpec] = {spec.kind: spec for spec in plan.faults}
        self.enabled = bool(plan.enabled) and any(
            spec.probability > 0.0 or getattr(spec, "poison_probability", 0.0) > 0.0
            for spec in plan.faults
        )
        self._eligible_cache: Dict[Tuple[str, str], bool] = {}
        self._counters: Dict[str, int] = {}
        self._events: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # bookkeeping

    def _record(self, event: str, entity: str) -> None:
        self._counters[event] = self._counters.get(event, 0) + 1
        if len(self._events) < _EVENT_LOG_LIMIT:
            self._events.append((event, entity))

    def _eligible(self, kind: str, hostname: str) -> bool:
        """Stable-hash membership in the fault's eligible-node slice.

        Hashing ``(seed, kind, hostname)`` instead of drawing RNG keeps
        eligibility independent of call order *and* concentrates chaos
        on a fixed node subset — the heavy-tailed "one flaky rack"
        pattern rather than uniform noise.
        """
        key = (kind, hostname)
        cached = self._eligible_cache.get(key)
        if cached is None:
            fraction = float(self._specs[kind].node_fraction)
            if fraction >= 1.0:
                cached = True
            elif fraction <= 0.0:
                cached = False
            else:
                token = stable_name_key(f"{self.plan.seed}:{kind}:{hostname}")
                cached = token < fraction * 2**31
            self._eligible_cache[key] = cached
        return cached

    def events(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self._events)

    def stats(self) -> Dict[str, object]:
        """Wire/metrics-safe summary (scalars and a flat counter dict)."""
        return {
            "profile": self.plan.name,
            "enabled": bool(self.enabled),
            "seed": int(self.plan.seed),
            "events_total": int(sum(self._counters.values())),
            "events": {k: int(v) for k, v in sorted(self._counters.items())},
        }

    # ------------------------------------------------------------------
    # decision points

    def sensor_fault(self, hostname: str, sensor: str) -> Optional[str]:
        """``"timeout"`` / ``"stale"`` / ``None`` for one BMC sensor read."""
        spec = self._specs.get("bmc_timeout")
        if spec is not None and spec.probability > 0.0 and self._eligible("bmc_timeout", hostname):
            rng = self.streams.stream(f"bmc_timeout:{hostname}:{sensor}")
            if rng.random() < spec.probability:
                self._record("bmc_timeout", hostname)
                return "timeout"
        spec = self._specs.get("bmc_stale")
        if spec is not None and spec.probability > 0.0 and self._eligible("bmc_stale", hostname):
            rng = self.streams.stream(f"bmc_stale:{hostname}:{sensor}")
            if rng.random() < spec.probability:
                self._record("bmc_stale", hostname)
                return "stale"
        return None

    def cap_writes(
        self,
        hostnames: Sequence[str],
        requested: np.ndarray,
        previous: np.ndarray,
    ) -> np.ndarray:
        """Corrupt a vector of requested per-node caps (NaN = uncapped).

        No-op writes (requested == previous) consume no RNG, so the
        replay stream tracks actual state changes, not call counts.
        """
        spec = self._specs.get("cap_write")
        if spec is None or spec.probability <= 0.0:
            return requested
        out = np.array(requested, dtype=float, copy=True)
        for i, hostname in enumerate(hostnames):
            if not self._eligible("cap_write", hostname):
                continue
            req, prev = out[i], previous[i]
            if req == prev or (np.isnan(req) and np.isnan(prev)):
                continue
            rng = self.streams.stream(f"cap_write:{hostname}")
            if rng.random() >= spec.probability:
                continue
            if spec.partial_fraction > 0.0 and not np.isnan(req) and not np.isnan(prev):
                out[i] = prev + spec.partial_fraction * (req - prev)
                self._record("cap_write_partial", hostname)
            else:
                out[i] = prev
                self._record("cap_write_failed", hostname)
        return out

    def cap_write(
        self, hostname: str, requested_w: float, current_w: Optional[float]
    ) -> Optional[float]:
        """Single-chassis cap write (Redfish path): wattage actually applied.

        Returns ``None`` when the write is dropped and there is no
        current limit to fall back to — the caller keeps the chassis
        uncapped and reports the old state, never raises.
        """
        spec = self._specs.get("cap_write")
        if spec is None or spec.probability <= 0.0 or not self._eligible("cap_write", hostname):
            return requested_w
        rng = self.streams.stream(f"cap_write:{hostname}")
        if rng.random() >= spec.probability:
            return requested_w
        if spec.partial_fraction > 0.0 and current_w is not None:
            self._record("cap_write_partial", hostname)
            return current_w + spec.partial_fraction * (requested_w - current_w)
        self._record("cap_write_failed", hostname)
        return current_w

    def node_crash(
        self,
        job_id: str,
        hostnames: Sequence[str],
        walltime_s: Optional[float] = None,
    ) -> Optional[Tuple[str, float]]:
        """Decide at launch whether one of the job's nodes dies mid-run.

        Returns ``(hostname, delay_s)`` or ``None``.  The delay is
        exponential around the spec's mean, clipped inside the job's
        walltime estimate so the crash interrupts real work.
        """
        spec = self._specs.get("node_crash")
        if spec is None or spec.probability <= 0.0:
            return None
        victims = [h for h in hostnames if self._eligible("node_crash", h)]
        if not victims:
            return None
        rng = self.streams.stream(f"node_crash:{job_id}")
        if rng.random() >= spec.probability:
            return None
        victim = victims[int(rng.integers(0, len(victims)))]
        delay_s = float(rng.exponential(float(spec.mean_delay_s)))
        if walltime_s is not None and walltime_s > 0:
            delay_s = min(delay_s, 0.9 * float(walltime_s))
        delay_s = max(delay_s, 1.0)
        self._record("node_crash", victim)
        return victim, delay_s

    def repair_time_s(self, default: float = 900.0) -> float:
        spec = self._specs.get("node_crash")
        if spec is None:
            return float(default)
        return float(spec.repair_time_s)

    def thermal_excursions(self, hostnames: Sequence[str]) -> List[Tuple[str, float]]:
        """Per monitoring tick: ``(hostname, delta_c)`` spikes to apply."""
        spec = self._specs.get("thermal")
        if spec is None or spec.probability <= 0.0:
            return []
        events: List[Tuple[str, float]] = []
        for hostname in hostnames:
            if not self._eligible("thermal", hostname):
                continue
            rng = self.streams.stream(f"thermal:{hostname}")
            if rng.random() < spec.probability:
                self._record("thermal", hostname)
                events.append((hostname, float(spec.delta_c)))
        return events

    def disk_stall(self, entity: str) -> Optional[float]:
        """Seconds one journal append stalls, or ``None`` (the usual case).

        ``entity`` is the segment name (e.g. ``shard-0.wal``); eligibility
        slices over segments exactly like hostnames, so a plan can pin
        storage chaos to one shard's journal.
        """
        spec = self._specs.get("disk_stall")
        if spec is None or spec.probability <= 0.0 or not self._eligible("disk_stall", entity):
            return None
        rng = self.streams.stream(f"disk_stall:{entity}")
        if rng.random() < spec.probability:
            self._record("disk_stall", entity)
            return float(spec.stall_s)
        return None

    def journal_torn_write(self, entity: str) -> Optional[float]:
        """Fraction of this journal append to persist before dying, or ``None``.

        A non-``None`` return instructs the segment to write only that
        prefix of the encoded entry and raise
        :class:`~repro.durability.JournalTornWriteError` — the replayable
        stand-in for a process killed mid-append.
        """
        spec = self._specs.get("journal_torn_write")
        if (
            spec is None
            or spec.probability <= 0.0
            or not self._eligible("journal_torn_write", entity)
        ):
            return None
        rng = self.streams.stream(f"journal_torn_write:{entity}")
        if rng.random() < spec.probability:
            self._record("journal_torn_write", entity)
            return float(spec.torn_fraction)
        return None

    def evaluator_fault(self, key: str, attempt: int) -> Optional[str]:
        """``"poison"`` / ``"straggle"`` / ``None`` for one evaluation attempt.

        The attempt index is part of the stream name, so a configuration
        evaluated again redraws: a poisoned evaluation is transient.
        :class:`ChaoticEvaluator` is the only caller.
        """
        spec = self._specs.get("straggler")
        if spec is None:
            return None
        poison_p = float(spec.poison_probability)
        straggle_p = float(spec.probability)
        if poison_p <= 0.0 and straggle_p <= 0.0:
            return None
        rng = self.streams.stream(f"straggler:{key}:{int(attempt)}")
        draw = float(rng.random())
        if draw < poison_p:
            self._record("evaluator_poisoned", key)
            return "poison"
        if draw < poison_p + straggle_p:
            self._record("evaluator_straggle", key)
            return "straggle"
        return None


class ChaoticEvaluator:
    """Evaluator wrapper injecting straggle/poison faults.

    The only consumer of ``straggler`` faults: it draws one per
    evaluation from its own :class:`FaultInjector`, built from the plan
    it wraps (not the process-global one a campaign's ``fault_profile``
    installs), so only a tuner whose evaluator is wrapped in it sees
    them.  No use case wraps its evaluator.  It pickles as its evaluator
    and plan, and an unpickled copy rebuilds its injector.
    """

    def __init__(self, evaluator, plan: FaultPlan):
        self.evaluator = evaluator
        self.plan = plan
        self._injector: Optional[FaultInjector] = None
        self._attempts: Dict[str, int] = {}

    def __getstate__(self):
        return {"evaluator": self.evaluator, "plan": self.plan}

    def __setstate__(self, state):
        self.__init__(state["evaluator"], state["plan"])

    def __call__(self, config):
        if self._injector is None:
            self._injector = FaultInjector(self.plan)
        if self._injector.enabled:
            key = repr(sorted(config.items()))
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            fault = self._injector.evaluator_fault(key, attempt)
            if fault == "poison":
                raise RuntimeError(
                    f"chaos: poisoned evaluation (attempt {attempt})"
                )
            if fault == "straggle":
                import time

                time.sleep(float(self.plan.spec("straggler").delay_s))
        return self.evaluator(config)


# ----------------------------------------------------------------------
# Process-global injection point

_ACTIVE: Optional[FaultInjector] = None
_LOCK = threading.Lock()


def install(plan_or_injector: Union[FaultPlan, FaultInjector]) -> FaultInjector:
    """Install (replacing any current) the process-global injector."""
    global _ACTIVE
    if isinstance(plan_or_injector, FaultInjector):
        inj = plan_or_injector
    else:
        inj = FaultInjector(plan_or_injector)
    with _LOCK:
        _ACTIVE = inj
    return inj


def active() -> Optional[FaultInjector]:
    """The installed injector, or ``None`` (the common, zero-cost case)."""
    return _ACTIVE


def clear() -> Optional[FaultInjector]:
    """Uninstall and return the current injector, if any."""
    global _ACTIVE
    with _LOCK:
        inj = _ACTIVE
        _ACTIVE = None
    return inj


@contextmanager
def injected(plan: Union[FaultPlan, FaultInjector]) -> Iterator[FaultInjector]:
    """Scope an injector installation; restores the previous one on exit."""
    global _ACTIVE
    previous = _ACTIVE
    inj = install(plan)
    try:
        yield inj
    finally:
        with _LOCK:
            _ACTIVE = previous
