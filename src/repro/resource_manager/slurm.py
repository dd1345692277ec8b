"""Power-aware resource manager / job scheduler (SLURM analogue).

Implements the system layer of the PowerStack: a FCFS + EASY-backfill
scheduler that is *power aware* in the three ways the paper's use cases
need:

* **system power budget** — the sum of the per-job power budgets never
  exceeds the site's schedulable power (§3.2.2's contractual limits);
* **power-aware node selection** — under a power cap, processors with
  better manufacturing variation sustain higher frequency, so the
  scheduler hands the most efficient (or coolest) free nodes to each job
  (§3.1.1);
* **job-level power budgets and launch policies** — each launch derives
  a job budget from the site policy and attaches a job-level runtime
  (GEOPM by default) configured with that budget (Figure 3).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.generator import JobRequest
from repro.apps.mpi import MpiJobSimulator, RuntimeHooks
from repro.faults import injector as _faults
from repro.hardware.cluster import Cluster
from repro.hardware.node import Node
from repro.resource_manager.job import Job, JobState
from repro.resource_manager.policies import (
    GeopmPolicyMode,
    JobPowerPolicy,
    PolicyAssigner,
    SitePolicies,
)
from repro.resource_manager.queue import JobQueue
from repro.runtime.base import JobRuntime
from repro.runtime.geopm import GeopmEndpoint, GeopmRuntime
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.telemetry.sampler import PowerTimeSeries

__all__ = [
    "SchedulerConfig",
    "SchedulerStats",
    "LaunchPlan",
    "NodeAvailabilityProfile",
    "PowerAwareScheduler",
]

#: Signature of a runtime factory: (job, power_budget_w, scheduler) -> hooks.
RuntimeFactory = Callable[[Job, Optional[float], "PowerAwareScheduler"], RuntimeHooks]

#: Reservation fallback when the availability profile never frees enough
#: nodes for the head job (nothing to backfill against).
PESSIMISTIC_SHADOW_S = 10 * 3600.0

#: Owner-id prefix for nodes drained after a crash.  Quarantine entries
#: live in the availability profile under this prefix, so the EASY
#: reservation accounts for repairs-in-progress like any pending release.
QUARANTINE_PREFIX = "__quarantine__"


class NodeAvailabilityProfile:
    """Running-job release profile for O(running) reservation computation.

    Keeps ``(estimated_release_time, node_count)`` entries sorted by
    release time, maintained incrementally at every launch and release,
    so the head job's earliest-start ("shadow") computation is one
    cumulative sum over the profile instead of a per-call sort of the
    whole running set.
    """

    def __init__(self) -> None:
        self._keys: List[Tuple[float, str]] = []
        self._counts: List[int] = []
        self._entries: Dict[str, Tuple[float, int]] = {}
        #: Cumulative-count cache, invalidated on mutation: between
        #: launches/releases every shadow-time query reuses one cumsum.
        self._cum: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, job_id: str, release_time_s: float, node_count: int) -> None:
        if job_id in self._entries:
            self.remove(job_id)
        key = (release_time_s, job_id)
        i = bisect.bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._counts.insert(i, int(node_count))
        self._entries[job_id] = (release_time_s, int(node_count))
        self._cum = None

    def remove(self, job_id: str) -> None:
        entry = self._entries.pop(job_id, None)
        if entry is None:
            return
        i = bisect.bisect_left(self._keys, (entry[0], job_id))
        del self._keys[i]
        del self._counts[i]
        self._cum = None

    def update_count(self, job_id: str, node_count: int) -> None:
        """Adjust a job's node count in place (malleable grow/shrink)."""
        entry = self._entries.get(job_id)
        if entry is None or entry[1] == node_count:
            return
        self.add(job_id, entry[0], node_count)

    def earliest_start(self, needed: int, free_count: int, now_s: float) -> float:
        """Earliest time ``needed`` nodes are expected to be available."""
        if free_count >= needed:
            return now_s
        if not self._counts:
            return now_s + PESSIMISTIC_SHADOW_S
        if self._cum is None:
            self._cum = np.cumsum(self._counts)
        cumulative = self._cum
        idx = int(np.searchsorted(cumulative, needed - free_count))
        if idx >= len(self._keys):
            return now_s + PESSIMISTIC_SHADOW_S
        return max(self._keys[idx][0], now_s)


@dataclass(frozen=True)
class LaunchPlan:
    """Outcome of the shared feasibility kernel for one candidate job.

    Backfill candidacy (:meth:`PowerAwareScheduler._fits_now`) and the
    actual launch (:meth:`PowerAwareScheduler._try_start`) both consume
    the same plan, so they can never disagree on the candidate node set,
    the budget inputs, or power feasibility.
    """

    node_count: int
    node_indices: Tuple[int, ...]
    budget_w: Optional[float]
    commitment_w: float


@dataclass
class SchedulerConfig:
    """Tunable configuration of the scheduler (its Table 1 parameters)."""

    scheduling_interval_s: float = 10.0
    monitor_interval_s: float = 5.0
    power_aware_node_selection: bool = True
    thermal_aware_node_selection: bool = False
    backfill: bool = True
    #: Per-job static imbalance passed to the job simulator.
    static_imbalance: float = 0.08
    imbalance_sigma: float = 0.03
    runtime_factory: Optional[RuntimeFactory] = None
    #: Crash-recovery policy (only exercised under fault injection):
    #: re-queue interrupted jobs, up to ``max_restarts`` times each, and
    #: quarantine the dead node for ``quarantine_repair_s`` seconds
    #: (``None`` = take the repair time from the fault plan).
    requeue_on_crash: bool = True
    max_restarts: int = 2
    quarantine_repair_s: Optional[float] = None
    #: Simulation driver; ``"event"`` is the only one (the field stays so
    #: callers passing it keep working).  It arms wakeups only for real
    #: state changes — arrivals, completions, repairs, explicit schedule
    #: requests — and fast-forwards over idle time (the power monitor
    #: suspends while nothing runs and replays its sampling grid
    #: bit-exactly on wake).
    driver: str = "event"
    #: Bound on how many queued jobs one backfill sweep examines past the
    #: FCFS head (SLURM's ``bf_max_job_test``).  ``None`` keeps the
    #: exhaustive historical sweep; mega-scale traces set a depth so a
    #: pass is O(schedulable), not O(pending).
    backfill_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheduling_interval_s <= 0 or self.monitor_interval_s <= 0:
            raise ValueError("intervals must be positive")
        if self.static_imbalance < 0 or self.imbalance_sigma < 0:
            raise ValueError("imbalance parameters must be >= 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.quarantine_repair_s is not None and self.quarantine_repair_s <= 0:
            raise ValueError("quarantine_repair_s must be positive")
        if self.driver != "event":
            raise ValueError(f"driver must be 'event', got {self.driver!r}")
        if self.backfill_depth is not None and self.backfill_depth < 1:
            raise ValueError("backfill_depth must be >= 1 (or None for unbounded)")


@dataclass
class SchedulerStats:
    """Aggregate statistics after (or during) a scheduling run."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_cancelled: int = 0
    makespan_s: float = 0.0
    mean_wait_s: float = 0.0
    mean_turnaround_s: float = 0.0
    throughput_jobs_per_hour: float = 0.0
    node_utilization: float = 0.0
    total_energy_j: float = 0.0
    mean_system_power_w: float = 0.0
    peak_system_power_w: float = 0.0
    committed_power_w: float = 0.0
    backfilled_jobs: int = 0
    #: Crash-recovery accounting — populated only under fault injection.
    jobs_requeued: int = 0
    nodes_quarantined: int = 0
    crash_failures: int = 0
    reclaimed_power_w: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        out = {
            "jobs_submitted": float(self.jobs_submitted),
            "jobs_completed": float(self.jobs_completed),
            "jobs_cancelled": float(self.jobs_cancelled),
            "makespan_s": self.makespan_s,
            "mean_wait_s": self.mean_wait_s,
            "mean_turnaround_s": self.mean_turnaround_s,
            "throughput_jobs_per_hour": self.throughput_jobs_per_hour,
            "node_utilization": self.node_utilization,
            "total_energy_j": self.total_energy_j,
            "mean_system_power_w": self.mean_system_power_w,
            "peak_system_power_w": self.peak_system_power_w,
            "committed_power_w": self.committed_power_w,
            "backfilled_jobs": float(self.backfilled_jobs),
        }
        # Crash counters appear only when chaos actually fired, so
        # fault-free runs keep their historical (golden-pinned) shape.
        if (
            self.jobs_requeued
            or self.nodes_quarantined
            or self.crash_failures
            or self.reclaimed_power_w
        ):
            out.update(
                {
                    "jobs_requeued": float(self.jobs_requeued),
                    "nodes_quarantined": float(self.nodes_quarantined),
                    "crash_failures": float(self.crash_failures),
                    "reclaimed_power_w": self.reclaimed_power_w,
                }
            )
        return out


class PowerAwareScheduler:
    """FCFS + backfill scheduler with system power budgeting."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        policies: Optional[SitePolicies] = None,
        config: Optional[SchedulerConfig] = None,
        streams: Optional[RandomStreams] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.policies = policies or SitePolicies(
            system_power_budget_w=cluster.system_power_budget_w
        )
        self.config = config or SchedulerConfig()
        self.streams = streams or RandomStreams(0)
        self.policy_assigner = PolicyAssigner(self.policies)

        self.queue = JobQueue()
        self.jobs: Dict[str, Job] = {}
        self.running: Dict[str, Job] = {}
        self.completed: List[Job] = []
        self.runtime_handles: Dict[str, RuntimeHooks] = {}
        self.endpoints: Dict[str, GeopmEndpoint] = {}
        self.power_series = PowerTimeSeries("system")
        self.backfilled_jobs = 0

        self._committed_power_w = 0.0
        self._busy_node_seconds = 0.0
        self._last_utilization_sample_s = env.now
        self._started = False
        self._sims: Dict[str, MpiJobSimulator] = {}
        self._expected_submissions = 0
        #: Incremental release profile backing the EASY reservation.
        self._availability = NodeAvailabilityProfile()
        #: Power commitment recorded per launch, so release is symmetric
        #: even when a job's budget is retuned while it runs.
        self._commitments: Dict[str, float] = {}
        #: Nodes currently owned by each job (updated on malleable resizes),
        #: released in _finish.
        self._owned_nodes: Dict[str, List[Node]] = {}
        #: Tightest head-job reservation ever promised, per job id.  The
        #: EASY invariant (a backfill never delays the head past its
        #: reservation) is asserted against this map by the test suite.
        self.head_reservations: Dict[str, float] = {}
        #: Crash recovery (fault injection): job_id -> crashed hostname,
        #: consumed by _job_process when the interrupted simulator unwinds.
        self._crashed: Dict[str, str] = {}
        #: Drained nodes: hostname -> estimated repair-complete time.
        self.quarantined: Dict[str, float] = {}
        self.jobs_requeued = 0
        self.nodes_quarantined = 0
        self.crash_failures = 0
        self.reclaimed_power_w = 0.0

        # -- event-driven driver state -------------------------------------
        #: Jobs that have left the active (PENDING/RUNNING) set, maintained
        #: incrementally so run_until_complete's liveness check is O(1)
        #: instead of scanning every submitted job per event step.
        self._finished_count = 0
        #: A pass is armed at the next scheduling-grid time (for mutations
        #: no event follows, e.g. a pending cancel).
        self._grid_pass_armed = False
        #: Next scheduling-grid time, advanced one interval at a time in
        #: floating point like a fixed-tick loop, so deferred passes land
        #: on the tick reference's timestamps (tests/oracles.py) exactly.
        self._sched_grid: Optional[float] = None
        #: Suspended-monitor state: while no job runs the monitor process
        #: parks on ``_mon_wake`` and ``_mon_next`` holds the first
        #: unsampled grid time; wakes replay the missed grid bit-exactly
        #: before any state mutation.
        self._mon_suspended = False
        self._mon_wake = None
        self._mon_next = 0.0
        #: Cached hostname list for fault-injection sweeps (the node set
        #: is immutable; rebuilding this per monitor sample is O(n) waste).
        self._all_hostnames: Optional[List[str]] = None
        # -- O(schedulable) pass state -------------------------------------
        #: Feasibility epoch: bumped whenever anything _plan_launch depends
        #: on changes (free-set version, committed power, schedulable
        #: power).  A job marked infeasible at the current epoch cannot
        #: have become feasible, so passes skip it without re-planning.
        self._feas_epoch = 0
        self._feas_key: Optional[Tuple[int, float, float]] = None
        self._infeasible_at: Dict[str, int] = {}
        #: Ranked-free-node cache, valid for one free-set version (the
        #: efficiency key is immutable, so equal versions rank equally).
        self._ranked_cache: Optional[np.ndarray] = None
        self._ranked_cache_version = -1

    # -- public API ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Submit a job now; scheduling is attempted immediately.

        Jobs that can never run on this cluster — no node count satisfies
        the application's rank constraint, or the smallest acceptable
        count exceeds the machine — are rejected (FAILED) instead of
        queued, so one malformed request cannot wedge the FCFS head and
        starve the queue forever.
        """
        job = self._enqueue(request)
        if job.state is JobState.PENDING:
            self._schedule()
        return job

    def _enqueue(self, request: JobRequest) -> Job:
        """Register + queue one request without running a pass."""
        if request.job_id in self.jobs:
            raise ValueError(f"duplicate job id {request.job_id!r}")
        job = Job(request=request, submit_time_s=self.env.now)
        self.jobs[request.job_id] = job
        acceptable = request.acceptable_node_counts()
        if not acceptable or min(acceptable) > len(self.cluster):
            job.mark_failed(self.env.now)
            self._finished_count += 1
            job.launch_metadata["reject_reason"] = (
                "no acceptable node count fits this cluster "
                f"(acceptable={acceptable}, cluster={len(self.cluster)} nodes)"
            )
            return job
        self.queue.push(job)
        return job

    def submit_trace(self, requests: Sequence[JobRequest]) -> None:
        """Submit a whole trace, honouring each request's arrival time."""
        self._expected_submissions += len(requests)
        self.env.process(self._arrival_process(list(requests)))

    def start(self) -> None:
        """Start the power monitor and the scheduling grid."""
        if self._started:
            return
        self._started = True
        self._sched_grid = self.env.now
        self.env.process(self._event_monitor_loop())

    def run_until_complete(self, extra_time_s: float = 0.0) -> "SchedulerStats":
        """Convenience driver: run the DES until all submitted jobs finished."""
        self.start()
        guard = 0
        while (
            len(self.jobs) < self._expected_submissions
            or self._finished_count < len(self.jobs)
            # Cancelled jobs stay in `running` until their simulator
            # unwinds; keep driving the DES so their nodes are reclaimed.
            or self.running
        ):
            horizon = self.env.peek()
            if horizon == float("inf"):
                break
            self.env.run(until=horizon)
            guard += 1
            if guard > 100_000_000:  # pragma: no cover - runaway guard
                raise RuntimeError("scheduler did not converge")
        if extra_time_s > 0:
            self.env.run(until=self.env.now + extra_time_s)
        # A suspended monitor owes the tail of its sampling grid (idle
        # fast-forward skipped the ticks; nothing changed, so replaying
        # them now is bit-identical to having ticked through).
        self._monitor_catch_up(up_to_now=True)
        return self.stats()

    # -- DES processes ------------------------------------------------------------------
    def _arrival_process(self, requests: List[JobRequest]):
        """Submit requests at their arrival times, one pass per timestamp.

        Same-timestamp arrivals (common in integer-stamped SWF traces)
        are queued as a batch before a single scheduling pass: the pass's
        FCFS fixpoint loop launches them in submission order with exactly
        the per-launch state updates per-submit passes would have made,
        so coalescing is decision-identical while saving O(batch) full
        passes.
        """
        requests = sorted(requests, key=lambda r: r.arrival_time_s)
        i, n = 0, len(requests)
        while i < n:
            delay = requests[i].arrival_time_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            arrived = requests[i].arrival_time_s
            progressed = False
            while i < n and requests[i].arrival_time_s == arrived:
                job = self._enqueue(requests[i])
                progressed = progressed or job.state is JobState.PENDING
                i += 1
            if progressed:
                self._schedule()

    def _event_monitor_loop(self):
        """Power monitor: tick while jobs run, suspend while idle.

        While the running set is non-empty it samples every
        ``monitor_interval_s`` (same sample times, same timeout
        accumulation as a fixed-tick monitor, so the samples are
        bit-identical).  When the machine idles the process parks on an
        event instead of burning a wakeup every interval;
        :meth:`_monitor_catch_up` replays the skipped grid samples — at
        their grid timestamps, with provably unchanged state — before
        anything mutates power/allocation state.
        """
        interval = self.config.monitor_interval_s
        while True:
            self._sample_power()
            if self.running:
                yield self.env.timeout(interval)
                continue
            self._mon_suspended = True
            self._mon_next = self.env.now + interval
            self._mon_wake = self.env.event()
            yield self._mon_wake
            # Resumed (and caught up) by _resume_monitor; land the next
            # real sample back on the sampling grid.
            delay = self._mon_next - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)

    # repro-lint: hot
    def _monitor_catch_up(self, up_to_now: bool = False) -> None:
        """Replay grid samples the suspended monitor skipped (< now).

        Valid only because nothing that the sample reads — node power
        draw, the free mask, package temperatures — changes while zero
        jobs run, except through the replayed samples themselves (thermal
        excursions consume their RNG streams in replay order, exactly as
        fixed ticks would have).  Callers must invoke this BEFORE
        mutating any of that state.
        """
        if not self._mon_suspended:
            return
        interval = self.config.monitor_interval_s
        now = self.env.now
        while self._mon_next < now or (up_to_now and self._mon_next == now):
            self._sample_power(at=self._mon_next)
            self._mon_next = self._mon_next + interval

    # repro-lint: hot
    def _resume_monitor(self) -> None:
        """Wake the suspended monitor (first launch after an idle spell)."""
        if not self._mon_suspended:
            return
        self._mon_suspended = False
        self._mon_wake.succeed()

    def _sample_power(self, at: Optional[float] = None) -> None:
        now = self.env.now if at is None else at
        inj = _faults.active()
        if inj is not None and inj.enabled:
            cluster = self.cluster
            if self._all_hostnames is None:
                self._all_hostnames = [node.hostname for node in cluster.nodes]
            # Thermal excursions land on the monitoring tick: an eligible
            # node's packages spike, which thermal-aware selection and the
            # BMC cpu_temp sensor then observe.
            for hostname, delta_c in inj.thermal_excursions(self._all_hostnames):
                cluster.state.pkg_temperature_c[cluster.node(hostname).node_id] += delta_c
                cluster.state.power_inputs_version += 1
        busy = self.cluster.state.busy_count
        dt = now - self._last_utilization_sample_s
        if dt > 0:
            self._busy_node_seconds += busy * dt
            self._last_utilization_sample_s = now
        self.power_series.record(now, self.cluster.instantaneous_power_w())

    # -- power accounting ------------------------------------------------------------------
    @property
    def committed_power_w(self) -> float:
        """Power currently committed to running jobs (their budgets)."""
        return self._committed_power_w

    def _commitment_for(self, nodes: Sequence[Node], budget_w: Optional[float]) -> float:
        return self._commitment_for_count(len(nodes), budget_w)

    def _commitment_for_count(self, count: int, budget_w: Optional[float]) -> float:
        """Commitment of an uncapped job is its nodes' worst-case draw."""
        if budget_w is not None:
            return budget_w
        return count * self.cluster.spec.node.tdp_w

    # -- scheduling core ----------------------------------------------------------------------
    def _free_count(self) -> int:
        return self.cluster.state.free_count

    def _ranked_free_indices(self) -> np.ndarray:
        """Free node indices in selection order (best-first for the policy).

        The non-thermal ranking is memoized per free-set version: the
        efficiency key is immutable after construction, so an unchanged
        free mask ranks identically and one argsort serves every
        candidate a pass plans.  Thermal ranking keys on drifting
        temperatures and stays uncached.
        """
        if self.config.thermal_aware_node_selection:
            return self.cluster.rank_free_by_temperature()
        state = self.cluster.state
        if (
            self._ranked_cache is not None
            and self._ranked_cache_version == state.free_version
        ):
            return self._ranked_cache
        if self.config.power_aware_node_selection:
            ranked = self.cluster.rank_free_by_efficiency()
        else:
            ranked = self.cluster.free_node_indices()
        self._ranked_cache = ranked
        self._ranked_cache_version = state.free_version
        return ranked

    def _choose_node_count(self, job: Job, free_count: int) -> Optional[int]:
        """Node count to start the job with (moldable jobs shrink to fit)."""
        acceptable = job.request.acceptable_node_counts()
        if not acceptable:
            return None
        fitting = [n for n in acceptable if n <= free_count]
        if not fitting:
            return None
        preferred = job.request.nodes_requested
        if preferred in fitting:
            return preferred
        return max(fitting)

    # repro-lint: hot
    def _plan_launch(self, job: Job) -> Optional[LaunchPlan]:
        """Shared feasibility kernel: candidate node set + budget + power check.

        Both backfill candidacy (:meth:`_fits_now`) and the actual launch
        (:meth:`_try_start`) evaluate THIS plan — the ranked candidate
        set and the budget inputs are computed once, so candidacy and
        launch cannot disagree under manufacturing variation (the ranked
        set differs from node-id order precisely when variation matters).
        """
        count = self._choose_node_count(job, self._free_count())
        if count is None:
            return None
        ranked = self._ranked_free_indices()
        if len(ranked) < count:
            return None
        indices = tuple(ranked[:count].tolist())
        spec = self.cluster.spec.node
        budget = self.policies.job_budget_w(
            job_nodes=count,
            total_nodes=len(self.cluster),
            committed_power_w=self._committed_power_w,
            node_tdp_w=self.cluster.nodes[indices[0]].max_power_w(),
            node_min_w=spec.min_power_w,
        )
        commitment = self._commitment_for_count(count, budget)
        if (
            self._committed_power_w + commitment
            > self.policies.schedulable_power_w + 1e-6
        ):
            return None
        return LaunchPlan(count, indices, budget, commitment)

    def _try_start(self, job: Job, backfill: bool = False) -> bool:
        plan = self._plan_launch(job)
        if plan is None:
            return False
        nodes = self.cluster.nodes_at(plan.node_indices)
        self._launch(job, nodes, plan.budget_w, backfilled=backfill, plan=plan)
        return True

    def _fits_now(self, job: Job) -> bool:
        return self._plan_launch(job) is not None

    # repro-lint: hot
    def _feasibility_epoch(self) -> int:
        """Epoch of everything :meth:`_plan_launch` depends on.

        A launch plan is a pure function of (free-set identity, committed
        power, schedulable power, the job's own immutable request), so a
        job found infeasible at some epoch is still infeasible while the
        epoch holds — passes skip it without re-planning.  Thermal-aware
        selection additionally keys on drifting temperatures and opts out
        of marks entirely.
        """
        key = (
            self.cluster.state.free_version,
            self._committed_power_w,
            self.policies.schedulable_power_w,
        )
        if key != self._feas_key:
            self._feas_key = key
            self._feas_epoch += 1
        return self._feas_epoch

    # repro-lint: hot
    def _schedule(self) -> None:
        """One scheduling pass: FCFS head first, then EASY backfill.

        The head's reservation (shadow time) is recomputed from the
        availability profile after *every* backfill launch, and the
        remaining candidates are re-filtered against the fresh value, so
        a later backfill can never ride on a stale reservation and delay
        the head job.

        Per-job infeasibility marks make the pass O(schedulable): a job
        that failed to plan is remembered against the current feasibility
        epoch and skipped — provably without changing any decision —
        until launches/releases/budget changes bump the epoch.
        """
        use_marks = not self.config.thermal_aware_node_selection
        marks = self._infeasible_at
        progressed = True
        while progressed:
            progressed = False
            head = self.queue.head()
            if head is None:
                return
            if use_marks and marks.get(head.job_id) == self._feasibility_epoch():
                break
            if self._try_start(head):
                self.queue.remove(head)
                marks.pop(head.job_id, None)
                progressed = True
            elif use_marks:
                marks[head.job_id] = self._feasibility_epoch()
        if not self.config.backfill:
            return
        head = self.queue.head()
        if head is None:
            return
        shadow = self._shadow_time(head)
        self._record_reservation(head, shadow)

        def fits(job: Job) -> bool:
            if use_marks and marks.get(job.job_id) == self._feasibility_epoch():
                return False
            ok = self._fits_now(job)
            if not ok and use_marks:
                marks[job.job_id] = self._feasibility_epoch()
            return ok

        candidates = self.queue.backfill_candidates(
            self.env.now, shadow, fits=fits,
            max_candidates=self.config.backfill_depth,
        )
        for job in candidates:
            # Re-filter against the reservation as recomputed after the
            # previous backfill launch (stale-shadow EASY fix).
            if self.env.now + job.request.walltime_estimate_s > shadow:
                continue
            plan = self._plan_launch(job)
            if plan is None:
                if use_marks:
                    marks[job.job_id] = self._feasibility_epoch()
                continue
            self._launch(
                job, self.cluster.nodes_at(plan.node_indices), plan.budget_w,
                backfilled=True, plan=plan,
            )
            self.queue.remove(job)
            marks.pop(job.job_id, None)
            self.backfilled_jobs += 1
            shadow = self._shadow_time(head)
            self._record_reservation(head, shadow)

    # repro-lint: hot
    def _request_schedule(self) -> None:
        """Run a pass for the current timestamp, inline.

        Completion-triggered passes deliberately stay per-trigger: node
        selection ranks the free pool at pass time, so batching two
        same-instant completions into one pass is decision-*visible*
        (the second job's nodes would join the pool before the first
        pass ranked it — runtime floors make simultaneous finishes
        real).  Per-trigger inline passes make the call sequence exactly
        the tick reference's in tests/oracles.py, so parity holds
        structurally.  Same-timestamp triggers that ARE decision-neutral
        coalesce upstream instead: arrival batches run one pass per
        timestamp (:meth:`_arrival_process`), and tickless mutations
        with no event of their own (pending cancels, corridor reclaims)
        share one grid-armed pass (:meth:`_request_grid_pass`).
        """
        self._schedule()

    def _request_grid_pass(self) -> None:
        """Arm a pass at the next scheduling-grid time.

        Mutations that no event follows — a pending-job cancel, a
        corridor reclaim freeing nodes — get their pass deferred to the
        scheduling grid, so decisions match the tick reference in
        tests/oracles.py: the grid is advanced with the same float
        accumulation as a fixed-tick loop, so the deferred pass makes
        bit-identical decisions at bit-identical times.
        """
        if self._grid_pass_armed:
            return
        if self._sched_grid is None:
            # Driver not started yet: the start()-time pass covers it.
            return
        interval = self.config.scheduling_interval_s
        now = self.env.now
        grid = self._sched_grid
        while grid <= now:
            grid = grid + interval
        self._sched_grid = grid
        self._grid_pass_armed = True
        self.env.timeout(grid - now).callbacks.append(self._fire_grid_pass)

    def _fire_grid_pass(self, _event) -> None:
        self._grid_pass_armed = False
        self._schedule()

    def _record_reservation(self, head: Job, shadow: float) -> None:
        current = self.head_reservations.get(head.job_id)
        if current is None or shadow < current:
            self.head_reservations[head.job_id] = shadow

    def _shadow_time(self, head: Job) -> float:
        """Estimated earliest start of the head job (its reservation time).

        Reads the incrementally maintained :class:`NodeAvailabilityProfile`
        (one cumulative sum).  Cancelled jobs stay in ``self.running``
        (and in the profile) until the simulator actually unwinds and
        their nodes are reclaimed, and quarantined nodes are entries too,
        so pending releases are never undercounted.
        """
        needed = min(head.request.acceptable_node_counts() or [head.request.nodes_requested])
        return self._availability.earliest_start(needed, self._free_count(), self.env.now)

    # -- launching -----------------------------------------------------------------------------
    def _default_runtime(self, job: Job, budget_w: Optional[float]) -> RuntimeHooks:
        policy = self.policy_assigner.assign(job.job_id, job.request.application.name, budget_w)
        endpoint = GeopmEndpoint(job_id=job.job_id)
        endpoint.write_policy(policy)
        self.endpoints[job.job_id] = endpoint
        runtime = GeopmRuntime(policy=policy, endpoint=endpoint)
        job.launch_metadata = {
            "geopm_agent": policy.agent,
            "geopm_source": policy.source,
            "power_budget_w": policy.power_budget_w,
        }
        return runtime

    def _account_launch(
        self,
        job: Job,
        nodes: List[Node],
        budget_w: Optional[float],
        backfilled: bool,
        plan: Optional[LaunchPlan] = None,
    ) -> None:
        """Allocation / power / reservation bookkeeping of a launch.

        Factored out of :meth:`_launch` so the scheduler-scale benchmark
        can populate a realistic running set without driving job
        simulators.
        """
        # The suspended monitor must replay its idle grid BEFORE this
        # launch mutates allocation/power state, and ticks again after.
        self._monitor_catch_up()
        self.cluster.allocate_nodes(nodes, job.job_id)
        job.mark_started(self.env.now, nodes, budget_w)
        job.launch_metadata.setdefault("power_budget_w", budget_w)
        job.launch_metadata["backfilled"] = backfilled
        commitment = (
            plan.commitment_w if plan is not None else self._commitment_for(nodes, budget_w)
        )
        self._commitments[job.job_id] = commitment
        self._committed_power_w += commitment
        self.running[job.job_id] = job
        self._owned_nodes[job.job_id] = list(nodes)
        self._availability.add(
            job.job_id,
            self.env.now + job.request.walltime_estimate_s,
            len(nodes),
        )
        self._resume_monitor()

    def _launch(
        self,
        job: Job,
        nodes: List[Node],
        budget_w: Optional[float],
        backfilled: bool,
        plan: Optional[LaunchPlan] = None,
    ) -> None:
        if self.config.runtime_factory is not None:
            runtime = self.config.runtime_factory(job, budget_w, self)
        else:
            runtime = self._default_runtime(job, budget_w)
        self.runtime_handles[job.job_id] = runtime

        # Applications may bring their own simulator (duck-typed hook):
        # trace-replay workloads substitute a constant-power fixed-length
        # simulation so mega-scale traces skip the per-region physics.
        make_simulator = getattr(job.request.application, "make_simulator", None)
        if make_simulator is not None:
            sim = self._sims[job.job_id] = make_simulator(
                self.env, nodes, job, runtime
            )
        else:
            sim = self._sims[job.job_id] = MpiJobSimulator(
                self.env,
                nodes,
                job.request.application,
                job.request.params,
                ranks_per_node=job.request.ranks_per_node,
                hooks=runtime,
                streams=self.streams.spawn(job.job_id),
                static_imbalance=self.config.static_imbalance,
                imbalance_sigma=self.config.imbalance_sigma,
                job_id=job.job_id,
            )
        self._account_launch(job, nodes, budget_w, backfilled, plan)
        # Simulators with no interior structure (trace replay) schedule
        # their completion as a single timeout instead of a generator
        # process: one DES event per job instead of three.  Everything
        # else rides the simulator's own process event rather than a
        # wrapper process: two fewer DES events per job, and the
        # teardown runs at the same point it always did (the wrapper's
        # body was itself a callback of this event).
        start_detached = getattr(sim, "start_detached", None)
        if start_detached is not None:
            start_detached(lambda result, _job=job: self._complete_job(_job, result))
        else:
            proc = self.env.process(sim.run())
            proc.callbacks.append(
                lambda event, _job=job: self._on_job_done(_job, event)
            )
        inj = _faults.active()
        if inj is not None and inj.enabled:
            crash = inj.node_crash(
                job.job_id,
                [node.hostname for node in nodes],
                job.request.walltime_estimate_s,
            )
            if crash is not None:
                self.env.process(self._crash_process(job, sim, *crash))

    # repro-lint: hot
    def _on_job_done(self, job: Job, event) -> None:
        """Callback on the simulator process event: job teardown.

        A failed simulator process is left alone — the event stays
        undefused, so the engine re-raises the error out of ``run()``
        exactly as it did when a wrapper process rethrew it.
        """
        if not event.ok:
            return
        self._complete_job(job, event._value)

    # repro-lint: hot
    def _complete_job(self, job: Job, result) -> None:
        """Shared teardown for process-event and detached completions."""
        crashed_host = self._crashed.pop(job.job_id, None)
        if crashed_host is not None and job.state is JobState.RUNNING:
            self._recover_from_crash(job, crashed_host, result)
            return
        if job.state is JobState.RUNNING:
            job.mark_completed(self.env.now, result)
            self._finished_count += 1
        else:
            job.result = result
        self._finish(job)

    def _crash_process(self, job: Job, sim, hostname: str, delay_s: float):
        """DES process: kill one of the job's nodes after ``delay_s``.

        A stale crash (the job already finished, or was re-queued and
        re-launched with a fresh simulator) is a no-op.  Budget reclaim
        happens here — at detection time — so the runtime's report shows
        the dead node's share handed back before teardown.
        """
        yield self.env.timeout(delay_s)
        if job.state is not JobState.RUNNING or self._sims.get(job.job_id) is not sim:
            return
        self._crashed[job.job_id] = hostname
        runtime = self.runtime_handles.get(job.job_id)
        if isinstance(runtime, JobRuntime):
            self.reclaimed_power_w += runtime.reclaim_node(hostname)
        sim.cancel()

    def _recover_from_crash(self, job: Job, hostname: str, result) -> None:
        """Re-queue (or fail) a crash-interrupted job and drain the node."""
        self._release_allocation(job)
        self._quarantine_node(hostname)
        if self.config.requeue_on_crash and job.restarts < self.config.max_restarts:
            job.mark_requeued(self.env.now)
            self.jobs_requeued += 1
            self.queue.push(job)
        else:
            job.result = result
            job.mark_failed(self.env.now)
            self._finished_count += 1
            self.crash_failures += 1
            self.completed.append(job)
        self._sample_power()
        self._request_schedule()

    def _quarantine_node(self, hostname: str) -> None:
        """Drain a crashed node until its repair completes.

        The node is held by a quarantine owner id (so nothing can launch
        on it) and the availability profile gains a one-node release at
        the repair time, keeping the EASY reservation honest about the
        shrunken machine.
        """
        node = self.cluster.node(hostname)
        if node.allocated_to is not None:
            return
        repair_s = self.config.quarantine_repair_s
        if repair_s is None:
            inj = _faults.active()
            repair_s = inj.repair_time_s() if inj is not None else 900.0
        owner = f"{QUARANTINE_PREFIX}:{hostname}"
        node.allocate(owner)
        release_at = self.env.now + float(repair_s)
        self.quarantined[hostname] = release_at
        self._availability.add(owner, release_at, 1)
        self.nodes_quarantined += 1
        self.env.process(self._repair_process(hostname, owner))

    def _repair_process(self, hostname: str, owner: str):
        release_at = self.quarantined[hostname]
        yield self.env.timeout(release_at - self.env.now)
        # A repair can complete during an idle spell: settle the monitor's
        # grid before the release changes the busy count it samples.
        self._monitor_catch_up()
        node = self.cluster.node(hostname)
        if node.allocated_to == owner:
            node.release()
        self._availability.remove(owner)
        self.quarantined.pop(hostname, None)
        self._request_schedule()

    def _release_allocation(self, job: Job) -> None:
        """Tear down a launch's ledgers (shared by _finish and crash recovery)."""
        # Release exactly what was committed at launch: a budget retuned
        # while the job ran (e.g. corridor cap tightening) must not skew
        # the committed-power ledger.
        commitment = self._commitments.pop(
            job.job_id, self._commitment_for(job.assigned_nodes, job.power_budget_w)
        )
        self._committed_power_w -= commitment
        self._committed_power_w = max(0.0, self._committed_power_w)
        owned = self._owned_nodes.pop(job.job_id, job.assigned_nodes)
        job_id = job.job_id
        self.cluster.release_nodes(
            [node for node in owned if node._allocated_to == job_id]
        )
        self.running.pop(job.job_id, None)
        self._availability.remove(job.job_id)

    def _finish(self, job: Job) -> None:
        self._release_allocation(job)
        if job.state is not JobState.CANCELLED:
            self.completed.append(job)
        self._sample_power()
        self._request_schedule()

    def cancel(self, job_id: str) -> None:
        """Cancel a pending or running job (running jobs stop at the next iteration)."""
        job = self.jobs[job_id]
        if job.state is JobState.PENDING:
            self.queue.remove(job)
            job.mark_cancelled(self.env.now)
            self._finished_count += 1
            # A pending cancel can unblock the FCFS head; the pass that
            # notices it runs at the next scheduling-grid time.
            self._request_grid_pass()
        elif job.state is JobState.RUNNING:
            sim = self._sims.get(job_id)
            if sim is not None:
                sim.cancel()
            job.mark_cancelled(self.env.now)
            self._finished_count += 1
            # The underlying simulator stops at the next iteration boundary.
            # The job stays in ``self.running`` (and in the availability
            # profile) until _finish actually reclaims its nodes: popping
            # it here would make the EASY reservation undercount pending
            # releases and let backfills delay the head job.

    # -- statistics -------------------------------------------------------------------------------
    def stats(self) -> SchedulerStats:
        finished = [j for j in self.jobs.values() if j.state is JobState.COMPLETED]
        cancelled = [j for j in self.jobs.values() if j.state is JobState.CANCELLED]
        waits = [j.wait_time_s() for j in finished if j.wait_time_s() is not None]
        turnarounds = [j.turnaround_s() for j in finished if j.turnaround_s() is not None]
        makespan = self.env.now
        total_node_seconds = len(self.cluster) * makespan if makespan > 0 else 1.0
        energy = sum(j.result.energy_j for j in finished if j.result is not None)
        throughput = len(finished) / (makespan / 3600.0) if makespan > 0 else 0.0
        return SchedulerStats(
            jobs_submitted=len(self.jobs),
            jobs_completed=len(finished),
            jobs_cancelled=len(cancelled),
            makespan_s=makespan,
            mean_wait_s=float(np.mean(waits)) if waits else 0.0,
            mean_turnaround_s=float(np.mean(turnarounds)) if turnarounds else 0.0,
            throughput_jobs_per_hour=throughput,
            node_utilization=min(1.0, self._busy_node_seconds / total_node_seconds),
            total_energy_j=energy,
            mean_system_power_w=self.power_series.mean_power_w() if len(self.power_series) else 0.0,
            peak_system_power_w=self.power_series.max_power_w(),
            committed_power_w=self._committed_power_w,
            backfilled_jobs=self.backfilled_jobs,
            jobs_requeued=self.jobs_requeued,
            nodes_quarantined=self.nodes_quarantined,
            crash_failures=self.crash_failures,
            reclaimed_power_w=self.reclaimed_power_w,
        )
