"""The autotuning loop (the ytopt flow of Figure 4).

The loop is exactly the paper's three steps: (1) the search algorithm
assigns values in the allowed ranges, (2) the evaluator ("plopper")
builds/runs the configuration and measures it, (3) the result is
appended to the performance database; repeat until ``max_evals``.  The
best configuration is read off the database at the end.

:class:`Autotuner` runs the steps a batch at a time through
:meth:`SearchAlgorithm.ask_batch` / :meth:`SearchAlgorithm.tell_batch`,
evaluates each batch through a pluggable executor
(:class:`SerialExecutor`, the thread-pool :class:`ThreadedExecutor` for
GIL-releasing / subprocess evaluators, or the process-pool
:class:`ProcessExecutor` for CPU-bound pure-Python evaluators) and can
memoize evaluator calls in an :class:`EvaluationCache` keyed by the
canonical configuration.  Its defaults (``batch_size=1``, a serial
executor, no cache, no retries) are the one-configuration-at-a-time
loop, bit for bit.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.constraints import ConstraintSet
from repro.core.objectives import Objective, PENALTY_OBJECTIVE, WeightedObjective, make_objective
from repro.core.search.base import SearchAlgorithm, config_key, make_search
from repro.core.space import ParameterSpace
from repro.telemetry.database import EvaluationRecord, PerformanceDatabase

__all__ = [
    "TuningResult",
    "Autotuner",
    "EvaluationCache",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "make_executor",
]

#: An evaluator maps a configuration to a dictionary of measured metrics.
Evaluator = Callable[[Dict[str, Any]], Mapping[str, float]]

#: Internal evaluation outcome: (metrics, failed).
_Outcome = Tuple[Dict[str, float], bool]


class SerialExecutor:
    """Evaluates a batch in the calling thread, in order."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        return [fn(item) for item in items]


class ThreadedExecutor:
    """Evaluates a batch on a shared thread pool (order-preserving).

    Suited to evaluators that release the GIL or wait on subprocesses /
    I/O (real build-and-run ploppers); pure-Python evaluators gain little.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Worker-process global holding the evaluator shipped at pool start-up.
_PROCESS_EVALUATOR: Optional[Evaluator] = None


def _process_worker_init(evaluator: Evaluator) -> None:
    """Pool initializer: install the evaluator once per worker process."""
    global _PROCESS_EVALUATOR
    _PROCESS_EVALUATOR = evaluator


def _process_worker_call(config: Dict[str, Any]) -> _Outcome:
    """Evaluate one configuration in a worker, mirroring ``_call_evaluator``.

    The exception-to-failure-metrics conversion must happen *inside* the
    worker: exceptions are data to the tuning loop, and letting them
    propagate would poison the whole ``Executor.map`` batch.
    """
    try:
        return dict(_PROCESS_EVALUATOR(config)), False
    except Exception as error:  # evaluator failures are data, not crashes
        metrics = {"error": 1.0, "error_message_hash": float(abs(hash(str(error))) % 10_000)}
        return metrics, True


class ProcessExecutor:
    """Evaluates a batch on a process pool (order-preserving).

    The executor for CPU-bound pure-Python evaluators, which the thread
    pool cannot speed up because of the GIL.  The contract: the evaluator
    must be *picklable* (a module-level function or a picklable callable
    object) — it is shipped to each worker once via the pool initializer,
    and batches are submitted in chunks so per-item IPC overhead is
    amortised.  Note ``error_message_hash`` of failures may differ from
    the in-process executors because string hashing is per-process.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None, chunksize: Optional[int] = None):
        self.max_workers = max_workers
        self.chunksize = chunksize
        self._evaluator: Optional[Evaluator] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    def bind_evaluator(self, evaluator: Evaluator) -> None:
        """Declare the evaluator the pool will run (checked for picklability)."""
        try:
            pickle.dumps(evaluator)
        except Exception as error:
            raise TypeError(
                "the process executor requires a picklable evaluator "
                "(define it at module level, or use executor='thread'): "
                f"{error}"
            ) from error
        if self._pool is not None and evaluator is not self._evaluator:
            self.close()
        self._evaluator = evaluator

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Evaluate ``items`` on the pool; order-preserving.

        NOTE: when an evaluator is bound, ``fn`` is *not* shipped to the
        workers — the pool runs the stock evaluate-and-convert-failures
        wrapper (:func:`_process_worker_call`) around the bound evaluator
        instead, because pickling an arbitrary ``fn`` (typically a tuner
        bound method) would drag the whole tuner object graph across the
        process boundary.  :class:`Autotuner` enforces this contract by
        rejecting subclasses that override ``_call_evaluator``.
        """
        items = list(items)
        if not items:
            return []
        if self._evaluator is None:
            # No bound evaluator (used outside Autotuner): degrade to
            # in-process evaluation rather than pickling a bound method.
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_process_worker_init,
                initargs=(self._evaluator,),
            )
        workers = self.max_workers or os.cpu_count() or 1
        chunksize = self.chunksize or max(1, math.ceil(len(items) / (workers * 4)))
        return list(self._pool.map(_process_worker_call, items, chunksize=chunksize))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(spec: Union[str, Any], max_workers: Optional[int] = None):
    """Resolve an executor spec (``"serial"``, ``"thread"``, ``"process"``
    or an object with a ``.map(fn, items)`` method)."""
    if not isinstance(spec, str):
        if not hasattr(spec, "map"):
            raise TypeError(f"executor {spec!r} must provide a .map(fn, items) method")
        return spec
    key = spec.strip().lower()
    if key == "serial":
        return SerialExecutor()
    if key in ("thread", "threads", "threadpool"):
        return ThreadedExecutor(max_workers=max_workers)
    if key in ("process", "processes", "processpool"):
        return ProcessExecutor(max_workers=max_workers)
    raise ValueError(f"unknown executor {spec!r}; available: serial, thread, process")


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
    #: Retry-with-backoff statistics (``max_retries > 0``): attempts
    #: re-issued for failed evaluations, and how many of those
    #: ultimately succeeded.
    retried_evaluations: int = 0
    recovered_evaluations: int = 0

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
    """Batched ask/evaluate/tell loop with optional memoization and parallelism.

    Per round the loop (1) asks the search for a whole batch, (2) rejects
    constraint-violating proposals without spending evaluations, (3)
    resolves the rest through the evaluation cache (which also
    deduplicates identical configurations within a batch), (4) runs the
    misses through the executor, and (5) reports the whole batch back
    with one ``tell_batch``.  Records land in the database in ask order.

    ``cache_evaluations`` is opt-in (matching :class:`~repro.core.cotuner.CoTuner`
    and the end-to-end tuner): memoization assumes a deterministic
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
        database: Optional[PerformanceDatabase] = None,
        name: str = "autotuner",
        infeasible_penalty_factor: float = 10.0,
        batch_size: int = 1,
        executor: Union[str, Any] = "serial",
        max_workers: Optional[int] = None,
        cache_evaluations: bool = False,
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
    ):
        if max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.space = space
        self.evaluator = evaluator
        self.objective = make_objective(objective) if isinstance(objective, str) else objective
        self.constraints = constraints or ConstraintSet()
        self.search = (
            make_search(search, space, seed=seed) if isinstance(search, str) else search
        )
        self.max_evals = int(max_evals)
        self.database = database if database is not None else PerformanceDatabase(name)
        self.name = name
        self.infeasible_penalty_factor = float(infeasible_penalty_factor)
        self.batch_size = int(batch_size)
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.retried_evaluations = 0
        self.recovered_evaluations = 0
        self.executor = make_executor(executor, max_workers=max_workers)
        # The process executor ships the evaluator to its workers once, at
        # pool start-up; it checks picklability here so a bad evaluator
        # fails fast instead of at the first batch.
        bind = getattr(self.executor, "bind_evaluator", None)
        if bind is not None:
            if type(self)._call_evaluator is not Autotuner._call_evaluator:
                raise TypeError(
                    "the process executor replicates the stock "
                    "Autotuner._call_evaluator inside its workers; a subclass "
                    "overriding _call_evaluator must use the serial or thread "
                    "executor instead"
                )
            bind(self.evaluator)
        self.cache: Optional[EvaluationCache] = (
            EvaluationCache() if cache_evaluations else None
        )

    def close(self) -> None:
        """Release executor resources (no-op for the serial executor)."""
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()

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
        return record.objective + self.infeasible_penalty_factor * (magnitude + 1.0)

    # -- batch evaluation ------------------------------------------------------------------
    def _map_with_retries(self, configs: List[Dict[str, Any]]) -> List[_Outcome]:
        """Executor map that re-issues failed evaluations with backoff.

        Straggling or transiently-poisoned evaluators (chaos profiles,
        flaky measurement hosts) get up to ``max_retries`` fresh attempts
        each, with exponential backoff between retry rounds.  The final
        outcome per position replaces the failed one, so a recovered
        evaluation is indistinguishable downstream from a first-try
        success — only the retry counters tell the story.
        """
        outcomes = list(self.executor.map(self._call_evaluator, configs))
        if self.max_retries <= 0:
            return outcomes
        for attempt in range(1, self.max_retries + 1):
            failed_positions = [i for i, (_, was_failed) in enumerate(outcomes) if was_failed]
            if not failed_positions:
                break
            if self.retry_backoff_s > 0:
                time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))
            retries = [configs[i] for i in failed_positions]
            self.retried_evaluations += len(retries)
            for i, outcome in zip(
                failed_positions, self.executor.map(self._call_evaluator, retries)
            ):
                if not outcome[1]:
                    self.recovered_evaluations += 1
                outcomes[i] = outcome
        return outcomes

    def _evaluate_batch(self, configs: List[Dict[str, Any]]) -> List[_Outcome]:
        """Outcomes for ``configs`` via cache + executor, in input order."""
        results: Dict[int, _Outcome] = {}
        if self.cache is None:
            return self._map_with_retries(configs)

        # Group cache misses by canonical key so within-batch duplicates
        # are evaluated once.
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
        for key, outcome in zip(ordered_keys, self._map_with_retries(misses)):
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
            retried_evaluations=self.retried_evaluations,
            recovered_evaluations=self.recovered_evaluations,
        )


class BatchAutotuner(Autotuner):
    """The same loop under its former name.

    A subclass rather than an alias: ``perfbench/layers.py`` wraps
    ``run`` on both names, and wrapping one shared ``run`` twice would
    count every traced run twice.
    """
