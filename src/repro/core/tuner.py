"""The autotuning loop (the ytopt flow of Figure 4).

The loop is exactly the paper's three steps: (1) the search algorithm
assigns values in the allowed ranges, (2) the evaluator ("plopper")
builds/runs the configuration and measures it, (3) the result is
appended to the performance database; repeat until ``max_evals``.  The
best configuration is read off the database at the end.

:class:`Autotuner` runs the steps a batch at a time through
:meth:`SearchAlgorithm.ask_batch` / :meth:`SearchAlgorithm.tell_batch`,
evaluates each batch in the calling thread and can memoize evaluator
calls in an :class:`EvaluationCache` keyed by the canonical
configuration.  Its defaults (``batch_size=1``, no cache) are the
one-configuration-at-a-time loop, bit for bit.  Fanning whole runs out
over threads or processes is the campaign's job
(:mod:`repro.experiments.campaign`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.constraints import ConstraintSet
from repro.core.objectives import Objective, PENALTY_OBJECTIVE, WeightedObjective, make_objective
from repro.core.search.base import SearchAlgorithm, config_key, make_search
from repro.core.space import ParameterSpace
from repro.telemetry.database import EvaluationRecord, PerformanceDatabase

__all__ = ["TuningResult", "Autotuner", "EvaluationCache"]

#: An evaluator maps a configuration to a dictionary of measured metrics.
Evaluator = Callable[[Dict[str, Any]], Mapping[str, float]]

#: Internal evaluation outcome: (metrics, failed).
_Outcome = Tuple[Dict[str, float], bool]

#: How far past its own objective an infeasible record is reported to the
#: search: ``objective + factor * (|objective| + 1)``.
INFEASIBLE_PENALTY_FACTOR = 10.0


class EvaluationCache:
    """Memoizes evaluator outcomes keyed by the canonical configuration.

    Tuning loops revisit configurations constantly (small spaces, repeated
    acquisition winners); re-running the plopper for a configuration that
    has already been built and measured is pure waste.  Failures are
    memoized too — a deterministic evaluator fails again.
    """

    def __init__(self) -> None:
        self._data: Dict[tuple, _Outcome] = {}
        self.hits = 0
        self.misses = 0

    key = staticmethod(config_key)

    def get(self, key: tuple) -> Optional[_Outcome]:
        outcome = self._data.get(key)
        if outcome is None:
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def put(self, key: tuple, outcome: _Outcome) -> None:
        self._data[key] = outcome

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class TuningResult:
    """Outcome of one tuning run."""

    best_config: Optional[Dict[str, Any]]
    best_metrics: Dict[str, float]
    best_objective: float
    evaluations: int
    database: PerformanceDatabase
    objective_name: str
    infeasible_evaluations: int = 0
    failed_evaluations: int = 0
    convergence: List[float] = field(default_factory=list)
    #: Evaluation-cache statistics (0 without ``cache_evaluations``).
    cache_hits: int = 0
    cache_misses: int = 0

    def summary(self) -> Dict[str, Any]:
        return {
            "objective": self.objective_name,
            "best_objective": self.best_objective,
            "best_config": self.best_config,
            "evaluations": self.evaluations,
            "infeasible": self.infeasible_evaluations,
            "failed": self.failed_evaluations,
        }


class Autotuner:
    """Batched ask/evaluate/tell loop with optional memoization.

    Per round the loop (1) asks the search for a whole batch, (2) rejects
    constraint-violating proposals without spending evaluations, (3)
    resolves the rest through the evaluation cache (which also
    deduplicates identical configurations within a batch), (4) evaluates
    the misses in order in the calling thread, and (5) reports the whole
    batch back with one ``tell_batch``.  Records land in the database in
    ask order.

    ``cache_evaluations`` is opt-in: memoization assumes a deterministic
    evaluator — failures are cached too, so a flaky evaluator would pin
    a transient failure for the rest of the run.
    """

    def __init__(
        self,
        space: ParameterSpace,
        evaluator: Evaluator,
        objective: Union[str, Objective, WeightedObjective] = "runtime",
        constraints: Optional[ConstraintSet] = None,
        search: Union[str, SearchAlgorithm] = "forest",
        max_evals: int = 100,
        seed: int = 0,
        name: str = "autotuner",
        batch_size: int = 1,
        cache_evaluations: bool = False,
    ):
        if max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.space = space
        self.evaluator = evaluator
        self.objective = make_objective(objective) if isinstance(objective, str) else objective
        self.constraints = constraints or ConstraintSet()
        self.search = (
            make_search(search, space, seed=seed) if isinstance(search, str) else search
        )
        self.max_evals = int(max_evals)
        self.database = PerformanceDatabase(name)
        self.name = name
        self.batch_size = int(batch_size)
        self.cache: Optional[EvaluationCache] = (
            EvaluationCache() if cache_evaluations else None
        )

    # -- evaluation of one configuration ---------------------------------------------------
    def _call_evaluator(self, config: Dict[str, Any]) -> _Outcome:
        """Run the evaluator, turning exceptions into failure metrics."""
        try:
            return dict(self.evaluator(config)), False
        except Exception as error:  # evaluator failures are data, not crashes
            metrics = {"error": 1.0, "error_message_hash": float(abs(hash(str(error))) % 10_000)}
            return metrics, True

    def _record_evaluation(
        self, config: Dict[str, Any], metrics: Dict[str, float], failed: bool
    ) -> EvaluationRecord:
        feasible = (not failed) and self.constraints.allows_metrics(metrics)
        objective_value = PENALTY_OBJECTIVE if failed else float(self.objective(metrics))
        record = self.database.add_evaluation(
            config=config,
            metrics=metrics,
            objective=objective_value,
            elapsed_s=metrics.get("runtime_s", 0.0),
            feasible=feasible,
            tuner=self.name,
        )
        return record

    def _search_value(self, record: EvaluationRecord) -> float:
        """Objective value reported to the search (penalised when infeasible)."""
        if record.feasible:
            return record.objective
        if record.objective >= PENALTY_OBJECTIVE:
            return PENALTY_OBJECTIVE
        magnitude = abs(record.objective)
        return record.objective + INFEASIBLE_PENALTY_FACTOR * (magnitude + 1.0)

    # -- batch evaluation ------------------------------------------------------------------
    def _evaluate_batch(self, configs: List[Dict[str, Any]]) -> List[_Outcome]:
        """Outcomes for ``configs`` via the cache and the evaluator, in input order."""
        if self.cache is None:
            return [self._call_evaluator(config) for config in configs]

        # Group cache misses by canonical key so within-batch duplicates
        # are evaluated once.
        results: Dict[int, _Outcome] = {}
        pending: Dict[tuple, List[int]] = {}
        ordered_keys: List[tuple] = []
        for pos, config in enumerate(configs):
            key = self.cache.key(config)
            if key in pending:
                self.cache.hits += 1  # resolved by the in-flight duplicate
                pending[key].append(pos)
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[pos] = cached
            else:
                pending[key] = [pos]
                ordered_keys.append(key)
        misses = [configs[pending[key][0]] for key in ordered_keys]
        for key, outcome in zip(ordered_keys, map(self._call_evaluator, misses)):
            self.cache.put(key, outcome)
            for pos in pending[key]:
                results[pos] = outcome
        return [results[pos] for pos in range(len(configs))]

    # -- main loop -------------------------------------------------------------------------------
    def run(
        self, callback: Optional[Callable[[int, EvaluationRecord], None]] = None
    ) -> TuningResult:
        """Run up to ``max_evals`` evaluations and return the best result."""
        infeasible = 0
        failed = 0
        convergence: List[float] = []
        best_feasible: Optional[EvaluationRecord] = None
        slot = 0  # ask slots consumed, counting constraint rejections

        while slot < self.max_evals:
            if self.search.is_exhausted():
                break
            configs = self.search.ask_batch(min(self.batch_size, self.max_evals - slot))
            if not configs:
                break
            configs = [self.space.validate(config) for config in configs]
            allowed = [self.space.is_allowed(config) for config in configs]
            outcomes = self._evaluate_batch(
                [c for c, ok in zip(configs, allowed) if ok]
            )

            tell_values: List[float] = []
            outcome_iter = iter(outcomes)
            for config, ok in zip(configs, allowed):
                if not ok:
                    # Forbidden combination: reject without spending an
                    # evaluation on it.
                    tell_values.append(PENALTY_OBJECTIVE)
                    slot += 1
                    continue
                metrics, was_failed = next(outcome_iter)
                record = self._record_evaluation(config, metrics, was_failed)
                if not record.feasible:
                    infeasible += 1
                if "error" in record.metrics:
                    failed += 1
                tell_values.append(self._search_value(record))
                if record.feasible and (
                    best_feasible is None or record.objective < best_feasible.objective
                ):
                    best_feasible = record
                convergence.append(
                    best_feasible.objective if best_feasible is not None else math.inf
                )
                if callback is not None:
                    callback(slot, record)
                slot += 1
            self.search.tell_batch(configs, tell_values)

        best = best_feasible or self.database.best(minimize=True, feasible_only=False)
        return TuningResult(
            best_config=dict(best.config) if best is not None else None,
            best_metrics=dict(best.metrics) if best is not None else {},
            best_objective=best.objective if best is not None else math.inf,
            evaluations=len(self.database),
            database=self.database,
            objective_name=getattr(self.objective, "name", "objective"),
            infeasible_evaluations=infeasible,
            failed_evaluations=failed,
            convergence=convergence,
            cache_hits=self.cache.hits if self.cache is not None else 0,
            cache_misses=self.cache.misses if self.cache is not None else 0,
        )


class BatchAutotuner(Autotuner):
    """The same loop under its former name.

    A subclass rather than an alias: ``perfbench/layers.py`` wraps
    ``run`` on both names, and wrapping one shared ``run`` twice would
    count every traced run twice.
    """
