"""Reference implementations the parity suites and benchmarks compare against.

Production keeps one implementation per concept: one scheduler driver
(event-driven wakeups), one node-selection path (the cluster's
struct-of-arrays state) and one tuning loop (the batched ask/evaluate/
tell of :class:`~repro.core.tuner.Autotuner`).  The simpler designs they
replaced live here, unchanged in behaviour, so every optimisation stays
provably decision-identical:

* :class:`IntervalDriverScheduler` — the fixed-tick driver: a scheduling
  pass every ``scheduling_interval_s`` and a power sample every
  ``monitor_interval_s``, whether or not anything changed;
* :class:`ScalarScheduler` — node selection, feasibility and the EASY
  reservation on per-``Node`` lists and a per-call sort of the running
  set;
* :func:`sequential_autotune` — one ``ask``/evaluate/``tell`` per
  configuration.

Not collected by pytest (no ``test_`` prefix); ``benchmarks/conftest.py``
puts this directory on ``sys.path`` so the benchmarks import it too.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from repro.core.objectives import PENALTY_OBJECTIVE
from repro.core.tuner import Autotuner, TuningResult
from repro.resource_manager.job import Job
from repro.resource_manager.slurm import PESSIMISTIC_SHADOW_S, PowerAwareScheduler
from repro.telemetry.database import EvaluationRecord

__all__ = ["IntervalDriverScheduler", "ScalarScheduler", "sequential_autotune"]


class IntervalDriverScheduler(PowerAwareScheduler):
    """Fixed-tick scheduler and monitor loops instead of event wakeups."""

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._sched_grid = self.env.now
        self.env.process(self._scheduler_loop())
        self.env.process(self._monitor_loop())

    def _request_grid_pass(self) -> None:
        """Nothing to arm: the next tick picks the mutation up."""

    def _scheduler_loop(self):
        while True:
            self._schedule()
            yield self.env.timeout(self.config.scheduling_interval_s)

    def _monitor_loop(self):
        while True:
            self._sample_power()
            yield self.env.timeout(self.config.monitor_interval_s)


class ScalarScheduler(PowerAwareScheduler):
    """Node selection and reservations on per-``Node`` Python lists."""

    def _free_count(self) -> int:
        return len(self.cluster.free_nodes())

    def _ranked_free_indices(self) -> np.ndarray:
        free = self.cluster.free_nodes()
        if self.config.thermal_aware_node_selection:
            ranked = self.cluster.rank_nodes_by_temperature(free)
        elif self.config.power_aware_node_selection:
            ranked = self.cluster.rank_nodes_by_efficiency(free)
        else:
            ranked = free
        return np.array([n.node_id for n in ranked], dtype=np.intp)

    def _shadow_time(self, head: Job) -> float:
        """Re-sorts the running set (and pending repairs) on every call."""
        needed = min(head.request.acceptable_node_counts() or [head.request.nodes_requested])
        free = self._free_count()
        if free >= needed:
            return self.env.now
        releases = sorted(
            [
                (
                    (job.start_time_s or self.env.now) + job.request.walltime_estimate_s,
                    # The owned-node ledger tracks malleable grow/shrink; the
                    # launch snapshot (assigned_nodes) does not.
                    len(self._owned_nodes.get(job.job_id, job.assigned_nodes)),
                )
                for job in self.running.values()
            ]
            # Quarantined nodes free up at their repair time.
            + [(release_s, 1) for release_s in self.quarantined.values()]
        )
        available = free
        for when, count in releases:
            available += count
            if available >= needed:
                return max(when, self.env.now)
        return self.env.now + PESSIMISTIC_SHADOW_S  # pessimistic: nothing frees up soon


def sequential_autotune(
    tuner: Autotuner,
    callback: Optional[Callable[[int, EvaluationRecord], None]] = None,
) -> TuningResult:
    """Run ``tuner``'s search one configuration at a time.

    Uses the tuner's space, search, evaluator, constraints and database
    but none of its batch, executor, cache or retry settings.
    """
    infeasible = 0
    failed = 0
    convergence: List[float] = []
    best_feasible: Optional[EvaluationRecord] = None

    for index in range(tuner.max_evals):
        if tuner.search.is_exhausted():
            break
        config = tuner.search.ask()
        config = tuner.space.validate(config)
        if not tuner.space.is_allowed(config):
            # The search proposed a forbidden combination: reject without
            # spending an evaluation on it.
            tuner.search.tell(config, PENALTY_OBJECTIVE)
            continue

        metrics, was_failed = tuner._call_evaluator(config)
        record = tuner._record_evaluation(config, metrics, was_failed)
        if not record.feasible:
            infeasible += 1
        if "error" in record.metrics:
            failed += 1
        tuner.search.tell(config, tuner._search_value(record))

        if record.feasible and (
            best_feasible is None or record.objective < best_feasible.objective
        ):
            best_feasible = record
        convergence.append(
            best_feasible.objective if best_feasible is not None else math.inf
        )
        if callback is not None:
            callback(index, record)

    best = best_feasible or tuner.database.best(minimize=True, feasible_only=False)
    return TuningResult(
        best_config=dict(best.config) if best is not None else None,
        best_metrics=dict(best.metrics) if best is not None else {},
        best_objective=best.objective if best is not None else math.inf,
        evaluations=len(tuner.database),
        database=tuner.database,
        objective_name=getattr(tuner.objective, "name", "objective"),
        infeasible_evaluations=infeasible,
        failed_evaluations=failed,
        convergence=convergence,
    )
