"""Campaign runner: scenario×seed grids fanned out over a pool.

A :class:`Campaign` expands a list of :class:`ScenarioSpec` into one
:class:`RunSpec` per (scenario, seed, budget-trace segment), runs them
in the calling thread (``serial``) or fans them out over a thread or
process pool (``thread`` / ``process``), and captures every run into a
columnar :class:`~repro.telemetry.database.PerformanceDatabase` tagged
by use case, scenario, seed and segment.  It is the one place that
fans out: a tuner evaluates its batches in the calling thread.

Determinism: every run builds its own
:class:`~repro.sim.rng.RandomStreams` from the run's seed (SHA-256
stream keys, process-stable), so a campaign is result-identical whether
it runs in-process, on one worker, or fanned out over a process pool —
only wall-clock changes.  :func:`derive_seeds` derives decorrelated
per-run seeds from one base seed the same way in every process.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.registry import get_use_case, scalar_metrics
from repro.experiments.scenarios import ScenarioSpec
from repro.telemetry.database import PerformanceDatabase

__all__ = ["RunSpec", "RunResult", "Campaign", "CampaignResult", "derive_seeds"]

#: The pool behind each executor name (``serial`` runs in the calling thread).
_POOLS = {"serial": None, "thread": ThreadPoolExecutor, "process": ProcessPoolExecutor}


def derive_seeds(base_seed: int, n: int) -> Tuple[int, ...]:
    """``n`` decorrelated 64-bit seeds derived deterministically from one.

    Uses :class:`numpy.random.SeedSequence`, so the expansion is identical
    across processes and platforms — the campaign-level counterpart of the
    per-component named streams inside a run.  The full 64-bit state is
    kept (no folding) so duplicate seeds — which ``ScenarioSpec`` rejects
    — stay out of reach of any realistic ``n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    state = np.random.SeedSequence(int(base_seed)).generate_state(n, dtype=np.uint64)
    return tuple(int(s) for s in state)


@dataclass(frozen=True)
class RunSpec:
    """One planned experiment run: a scenario at one seed (and segment)."""

    use_case: str
    scenario: str
    seed: int
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Budget-trace segment index (None when the scenario has no trace).
    segment: Optional[int] = None
    #: Simulation time at which this segment's budget takes effect.
    segment_start_s: Optional[float] = None
    tags: Mapping[str, str] = field(default_factory=dict)
    #: Named fault profile installed around the run (chaos axis).
    fault_profile: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "tags", dict(self.tags))

    def payload(self) -> Dict[str, Any]:
        """The picklable work item shipped to pool workers."""
        out = {
            "use_case": self.use_case,
            "seed": self.seed,
            "params": dict(self.params),
        }
        if self.fault_profile is not None:
            out["fault_profile"] = self.fault_profile
        return out

    def key(self) -> str:
        """Stable identity of this run within its campaign grid.

        Scenario names are unique per campaign and (seed, segment) pairs
        are unique per scenario, so the key is unique across the grid —
        it is what the resume journal records a completed run under.
        """
        key = f"{self.use_case}|{self.scenario}|seed={self.seed}"
        if self.segment is not None:
            key += f"|segment={self.segment}"
        return key


@dataclass
class RunResult:
    """One completed run: the raw result plus its flattened metrics."""

    spec: RunSpec
    result: Optional[Dict[str, Any]]
    metrics: Dict[str, float]
    objective: float
    feasible: bool
    elapsed_s: float = 0.0
    #: The exception message when the run raised.
    error: Optional[str] = None


def _execute_run(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one use case and time it (inside the pool worker).

    The registry repopulates itself inside fresh worker processes.  A
    ``fault_profile`` in the payload installs that chaos profile (seeded
    by the run's seed) around the run — inside the worker, so every
    executor injects bit-identically — and the injector's event stats
    land in the result under ``"chaos"``.
    """
    # elapsed_s is wall-clock *metadata* (stripped from every parity and
    # resume diff); run results themselves never read the clock.
    start = time.perf_counter()  # repro-lint: disable=RL001
    profile = payload.get("fault_profile")
    if profile:
        from repro.faults import injector as fault_injector
        from repro.faults import profiles as fault_profiles

        plan = fault_profiles.get_profile(profile, seed=int(payload["seed"]))
        with fault_injector.injected(plan) as inj:
            result = get_use_case(payload["use_case"]).run(
                seed=payload["seed"], **payload["params"]
            )
        result = dict(result)
        result["chaos"] = inj.stats()
    else:
        result = get_use_case(payload["use_case"]).run(
            seed=payload["seed"], **payload["params"]
        )
    return {"result": result, "elapsed_s": time.perf_counter() - start}  # repro-lint: disable=RL001


def _call_run(payload: Mapping[str, Any]) -> Tuple[Dict[str, Any], bool]:
    """Run one payload, turning an exception into failure data.

    Module-level so the process pool ships it by import path.  It calls
    ``_execute_run`` through the module global, so a wrapper installed on
    that name sees every in-process run.
    """
    try:
        return _execute_run(payload), False
    except Exception as error:  # failures are campaign data, not crashes
        return {"error": 1.0, "error_message": str(error)}, True


def _process_outcome(
    spec: RunSpec, value: Mapping[str, Any], failed: bool
) -> Dict[str, Any]:
    """Reduce one raw worker outcome to its journal-serialisable entry.

    Everything a database record and a :class:`RunResult` are built from
    lands here as plain JSON types, so a run replayed from the resume
    journal produces records bit-identical to the run that executed
    (floats survive a JSON round trip exactly).
    """
    defn = get_use_case(spec.use_case)
    chaos: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    if failed:
        # Normalised failure marker: the exception message goes to
        # ``error``, never into the metrics, so the database record is
        # identical whichever executor ran the campaign.
        metrics: Dict[str, float] = {"error": 1.0}
        raw_message = value.get("error_message")
        error = str(raw_message) if raw_message is not None else None
        run_elapsed = 0.0
    else:
        result = value["result"]
        metrics = scalar_metrics(result)
        run_elapsed = float(value["elapsed_s"])
        if isinstance(result, Mapping) and isinstance(result.get("chaos"), dict):
            chaos = dict(result["chaos"])
    objective = metrics.get(defn.objective_metric)
    feasible = (not failed) and objective is not None
    if objective is None:
        # Keep best-for queries sane in both directions.
        objective = float("inf") if defn.minimize else float("-inf")
    entry: Dict[str, Any] = {
        "metrics": metrics,
        "objective": float(objective),
        "feasible": bool(feasible),
        "elapsed_s": run_elapsed,
        "error": error,
    }
    if chaos is not None:
        entry["chaos"] = chaos
    return entry


class Campaign:
    """Expand scenario×seed grids and fan the runs out over a pool."""

    def __init__(self, scenarios: Sequence[ScenarioSpec], name: str = "campaign"):
        scenarios = list(scenarios)
        if not scenarios:
            raise ValueError("a campaign needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scenario names: {sorted(names)}")
        # Validate every scenario against the registry up front: unknown
        # use cases, bad parameter names and budget traces on budget-less
        # use cases fail before any run starts.
        for scenario in scenarios:
            defn = get_use_case(scenario.use_case)
            defn.validate_params(scenario.params)
            if scenario.budget_trace is not None and defn.budget_param is None:
                raise ValueError(
                    f"scenario {scenario.name!r}: use case {scenario.use_case!r} "
                    "has no budget parameter for a budget trace"
                )
            if scenario.fault_profile is not None:
                from repro.faults.profiles import PROFILES

                if scenario.fault_profile not in PROFILES:
                    raise ValueError(
                        f"scenario {scenario.name!r}: unknown fault profile "
                        f"{scenario.fault_profile!r}; known: {sorted(PROFILES)}"
                    )
        self.scenarios = scenarios
        self.name = name
        self.database = PerformanceDatabase(name)

    @property
    def total_runs(self) -> int:
        return sum(s.n_runs for s in self.scenarios)

    # -- planning ----------------------------------------------------------
    def expand(self) -> List[RunSpec]:
        """The full run grid: scenarios × seeds × budget-trace segments."""
        specs: List[RunSpec] = []
        for scenario in self.scenarios:
            defn = get_use_case(scenario.use_case)
            if scenario.budget_trace is None:
                segments: List[Tuple[Optional[int], Optional[float], Dict[str, Any]]] = [
                    (None, None, dict(scenario.params))
                ]
            else:
                segments = []
                for index, (start_s, watts) in enumerate(scenario.budget_trace.segments()):
                    params = dict(scenario.params)
                    params[defn.budget_param] = watts
                    segments.append((index, start_s, params))
            for seed in scenario.seeds:
                for segment, start_s, params in segments:
                    tags = dict(scenario.tags)
                    if scenario.fault_profile is not None:
                        tags.setdefault("fault_profile", scenario.fault_profile)
                    specs.append(
                        RunSpec(
                            use_case=scenario.use_case,
                            scenario=scenario.name,
                            seed=seed,
                            params=params,
                            segment=segment,
                            segment_start_s=start_s,
                            tags=tags,
                            fault_profile=scenario.fault_profile,
                        )
                    )
        return specs

    # -- execution ---------------------------------------------------------
    def run(
        self,
        executor: str = "serial",
        max_workers: Optional[int] = None,
        journal_dir: Optional[str] = None,
        resume: bool = False,
        run_budget: Optional[int] = None,
    ) -> "CampaignResult":
        """Run the grid (or the part of it not yet journaled as done).

        ``executor`` is ``"serial"`` (the calling thread), ``"thread"`` or
        ``"process"`` (a pool of ``max_workers`` workers, the pool's
        default when ``None``).  Results land in ``self.database`` (and in
        the returned result object) in grid order regardless of the
        executor, so any two executors produce identical databases for
        the same campaign.

        Durability: with ``journal_dir`` set, every completed run's
        processed outcome is appended to a crash-safe
        :class:`~repro.durability.runlog.CampaignJournal` the moment its
        wave finishes (waves are one run for the serial executor, one
        worker-batch otherwise) — a killed campaign loses at most the
        in-flight wave.  ``resume=True`` replays journaled outcomes and
        executes only the remaining runs; since per-run RNG derives from
        the run's seed, the resumed capture is bit-identical to an
        uninterrupted pass (wall-clock aside).  ``run_budget`` caps the
        number of runs *executed* this invocation (journaled replays are
        free); when the budget ends the campaign early, the returned
        result is partial and flagged ``aborted`` — re-invoke with
        ``resume=True`` to finish.  Every argument is checked before the
        journal is touched.
        """
        if executor not in _POOLS:
            raise ValueError(
                f"unknown executor {executor!r}; available: serial, thread, process"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be None or >= 1, got {max_workers}")
        if resume and journal_dir is None:
            raise ValueError("resume=True requires journal_dir")
        if run_budget is not None and run_budget < 0:
            raise ValueError("run_budget must be >= 0")
        specs = self.expand()
        keys = [spec.key() for spec in specs]

        journal = None
        replayed: Dict[str, Dict[str, Any]] = {}
        if journal_dir is not None:
            from repro.durability.runlog import CampaignJournal

            journal = CampaignJournal(journal_dir)
            journal.begin(self.name, len(specs), resume=resume)
            if resume:
                # Only keys of *this* grid count: alien entries (possible
                # after a torn header rewrite) must not shadow real runs.
                grid = set(keys)
                replayed = {
                    key: entry
                    for key, entry in journal.completed.items()
                    if key in grid
                }
        pending = [
            (index, spec)
            for index, spec in enumerate(specs)
            if keys[index] not in replayed
        ]
        todo = pending if run_budget is None else pending[:run_budget]
        workers = max_workers or os.cpu_count() or 1
        if journal is None and run_budget is None:
            waves = [todo]  # no journal, no budget: one map over the grid
        else:
            # Journaled/budgeted execution proceeds in waves so completed
            # outcomes hit the journal incrementally — a kill mid-campaign
            # loses at most the in-flight wave.
            size = 1 if executor == "serial" else workers
            waves = [todo[start : start + size] for start in range(0, len(todo), size)]

        entries: Dict[int, Dict[str, Any]] = {}
        raw_results: Dict[int, Optional[Dict[str, Any]]] = {}
        pool = None
        # Campaign elapsed time is reporting metadata only (stripped from
        # the resume-vs-uninterrupted diffs); never feeds a result.
        started = time.perf_counter()  # repro-lint: disable=RL001
        try:
            if todo and _POOLS[executor] is not None:
                pool = _POOLS[executor](max_workers=max_workers)
            for wave in waves:
                payloads = [spec.payload() for _, spec in wave]
                if pool is None:
                    outcomes = map(_call_run, payloads)
                else:
                    chunksize = max(1, math.ceil(len(payloads) / (workers * 4)))
                    outcomes = pool.map(_call_run, payloads, chunksize=chunksize)
                for (index, spec), (value, failed) in zip(wave, outcomes):
                    entry = _process_outcome(spec, value, failed)
                    entries[index] = entry
                    raw_results[index] = None if failed else value["result"]
                    if journal is not None:
                        journal.record_run(keys[index], entry)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
            if journal is not None:
                journal.close()
        elapsed = time.perf_counter() - started  # repro-lint: disable=RL001
        aborted = len(entries) < len(pending)

        runs: List[RunResult] = []
        for index, spec in enumerate(specs):
            if index in entries:
                entry = entries[index]
                result = raw_results[index]
            elif keys[index] in replayed:
                entry = replayed[keys[index]]
                # The raw payload is not journaled; chaos stats are, so
                # summaries keep their chaos-event counts across a resume.
                chaos = entry.get("chaos")
                result = {"chaos": dict(chaos)} if isinstance(chaos, dict) else None
            else:  # budget-aborted before this run: not part of the capture
                continue
            metrics = dict(entry["metrics"])
            objective = float(entry["objective"])
            feasible = bool(entry["feasible"])
            run_elapsed = float(entry["elapsed_s"])
            error = entry.get("error")
            tags = {
                "use_case": spec.use_case,
                "scenario": spec.scenario,
                "seed": str(spec.seed),
                **spec.tags,
            }
            if spec.segment is not None:
                tags["segment"] = str(spec.segment)
            self.database.add_evaluation(
                config={**spec.params, "seed": spec.seed},
                metrics=metrics,
                objective=objective,
                elapsed_s=run_elapsed,
                feasible=feasible,
                **tags,
            )
            runs.append(
                RunResult(
                    spec=spec,
                    result=result,
                    metrics=metrics,
                    objective=objective,
                    feasible=feasible,
                    elapsed_s=run_elapsed,
                    error=str(error) if error is not None else None,
                )
            )
        return CampaignResult(
            name=self.name,
            runs=runs,
            database=self.database,
            elapsed_s=elapsed,
            aborted=aborted,
        )


@dataclass
class CampaignResult:
    """All runs of one campaign plus the columnar capture."""

    name: str
    runs: List[RunResult]
    database: PerformanceDatabase
    elapsed_s: float
    #: True when a ``run_budget`` ended the campaign before the full grid
    #: ran — the capture is a prefix-consistent partial; resume to finish.
    aborted: bool = False

    def __len__(self) -> int:
        return len(self.runs)

    def rows(self) -> List[Dict[str, Any]]:
        """Flat per-run rows for cross-seed aggregation / tabulation."""
        out = []
        for run in self.runs:
            row: Dict[str, Any] = {
                "use_case": run.spec.use_case,
                "scenario": run.spec.scenario,
                "seed": run.spec.seed,
                "feasible": run.feasible,
                "objective": run.objective,
                "metrics": dict(run.metrics),
            }
            if run.spec.segment is not None:
                row["segment"] = run.spec.segment
            out.append(row)
        return out

    def aggregate(
        self, group_keys: Sequence[str] = ("use_case", "scenario")
    ) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Cross-seed mean/std/min/max of every metric, per group.

        Failed runs are excluded: one crashed seed must not erase the
        statistics of the seeds that succeeded (the reducer intersects
        metric keys across a group's runs).
        """
        from repro.analysis.reporting import aggregate_across_seeds

        rows = [row for row in self.rows() if row["feasible"]]
        return aggregate_across_seeds(rows, group_keys=group_keys)

    def best(self, use_case: str, **tag_filters: str):
        """Best *feasible* record for a use case (its registered direction).

        Returns None when every matching run failed — never a failed
        run's ±inf placeholder record.
        """
        defn = get_use_case(use_case)
        pool = self.database.where(feasible=True, use_case=use_case, **tag_filters)
        if not pool:
            return None
        key = min if defn.minimize else max
        return key(pool, key=lambda record: record.objective)

    def summary(self) -> Dict[str, Any]:
        """A JSON-serialisable campaign report (what the CLI emits)."""
        runs = []
        for run in self.runs:
            entry: Dict[str, Any] = {
                "use_case": run.spec.use_case,
                "scenario": run.spec.scenario,
                "seed": run.spec.seed,
                "objective": run.objective,
                "feasible": run.feasible,
                "elapsed_s": run.elapsed_s,
            }
            if run.spec.segment is not None:
                entry["segment"] = run.spec.segment
                entry["segment_start_s"] = run.spec.segment_start_s
            if run.spec.fault_profile is not None:
                entry["fault_profile"] = run.spec.fault_profile
                chaos = (run.result or {}).get("chaos")
                if isinstance(chaos, dict):
                    entry["chaos_events"] = chaos.get("events_total")
            runs.append(entry)
        return {
            "campaign": self.name,
            "n_runs": len(self.runs),
            "n_failed": sum(1 for run in self.runs if not run.feasible),
            "aborted": self.aborted,
            "elapsed_s": self.elapsed_s,
            "use_cases": sorted({run.spec.use_case for run in self.runs}),
            "runs": runs,
            "aggregates": self.aggregate(),
        }
