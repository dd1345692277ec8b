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
  reservation on per-``Node`` lists (:func:`free_nodes`,
  :func:`rank_nodes_by_temperature`) and a per-call sort of the running
  set;
* :func:`choose_node_count_by_list` — the launch node count from a list
  of the fitting acceptable counts, which the scheduler picks without
  building one;
* :func:`sequential_autotune` — one ``ask``/evaluate/``tell`` per
  configuration;
* :func:`sample_many_by_name` (with :func:`categorical_sample_by_array`)
  and :func:`config_key_by_pairs` — random configurations built row by
  row through a name lookup in a dict of columns, categorical values
  indexed by the drawn numpy array, and the dedupe key built from a
  generator of pairs: the same draws, rows and keys as
  ``ParameterSpace.sample_many`` and ``config_key``;
* the scalar power-model functions (:func:`voltage_at_frequency` through
  :func:`effective_flops`) — one small function per formula, which the
  package pass (``power_model.pstate_walk`` and ``phase_timing``) folds
  into one scalar pass with the same operations in the same order;
* :func:`thermal_advance` — the RC thermal step through the model's
  ``steady_state_c``/``time_constant_s`` chain, which
  ``ThermalModel.advance`` evaluates inline.

Not collected by pytest (no ``test_`` prefix); ``benchmarks/conftest.py``
puts this directory on ``sys.path`` so the benchmarks import it too.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.core.objectives import PENALTY_OBJECTIVE
from repro.core.parameters import CategoricalParameter, Parameter
from repro.core.space import ParameterSpace
from repro.core.tuner import Autotuner, TuningResult
from repro.hardware.power_model import PowerModelParams, dram_power
from repro.hardware.workload import PhaseDemand
from repro.resource_manager.job import Job
from repro.resource_manager.slurm import PESSIMISTIC_SHADOW_S, PowerAwareScheduler
from repro.telemetry.database import EvaluationRecord

__all__ = [
    "IntervalDriverScheduler",
    "ScalarScheduler",
    "choose_node_count_by_list",
    "sequential_autotune",
    "categorical_sample_by_array",
    "sample_many_by_name",
    "config_key_by_pairs",
    "voltage_at_frequency",
    "core_dynamic_power",
    "uncore_power",
    "static_power",
    "frequency_independent_power",
    "package_power",
    "phase_duration",
    "effective_ipc",
    "effective_flops",
    "thermal_advance",
]


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


def free_nodes(cluster) -> List[Any]:
    """Unallocated ``Node`` objects in node-id order."""
    return [cluster.nodes[i] for i in cluster.free_node_indices()]


def rank_nodes_by_temperature(nodes) -> List[Any]:
    """Nodes ordered coolest-first, one ``max_temperature_c`` call each."""
    return sorted(nodes, key=lambda n: n.max_temperature_c())


class ScalarScheduler(PowerAwareScheduler):
    """Node selection and reservations on per-``Node`` Python lists."""

    def _free_count(self) -> int:
        return len(free_nodes(self.cluster))

    def _ranked_free_indices(self) -> np.ndarray:
        free = free_nodes(self.cluster)
        if self.config.thermal_aware_node_selection:
            ranked = rank_nodes_by_temperature(free)
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


def choose_node_count_by_list(
    acceptable: List[int], preferred: int, free_count: int
) -> Optional[int]:
    """Preferred count if it fits and is acceptable, else the largest fit."""
    if not acceptable:
        return None
    fitting = [n for n in acceptable if n <= free_count]
    if not fitting:
        return None
    if preferred in fitting:
        return preferred
    return max(fitting)


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


# -- random configurations and their dedupe keys -----------------------------


def categorical_sample_by_array(
    param: Parameter, rng: np.random.Generator, count: int
) -> List[Any]:
    """``param.sample_array``, a categorical one indexing its values with
    each element of the drawn numpy array."""
    if not isinstance(param, CategoricalParameter):
        return param.sample_array(rng, count)
    idx = rng.integers(0, len(param.values), size=count)
    return [param.values[i] for i in idx]


def sample_many_by_name(
    space: ParameterSpace, rng: np.random.Generator, count: int, max_rounds: int = 200
) -> List[Dict[str, Any]]:
    """``space.sample_many``: each round draws one column per parameter and
    builds every row by looking each name up in a dict of columns."""
    if count <= 0:
        return []
    out: List[Dict[str, Any]] = []
    needed = count
    has_constraints = len(space.constraints) > 0
    for _ in range(max_rounds):
        columns = {
            param.name: categorical_sample_by_array(param, rng, needed)
            for param in space.parameters()
        }
        names = space.names()
        for i in range(needed):
            config = {name: columns[name][i] for name in names}
            if not has_constraints or space.is_allowed(config):
                out.append(config)
        needed = count - len(out)
        if needed == 0:
            return out
    raise RuntimeError(
        f"could not sample {count} allowed configurations from {space.name!r} "
        f"after {max_rounds} rounds — constraints may be unsatisfiable"
    )


def config_key_by_pairs(config: Mapping[str, Any]) -> tuple:
    """``config_key``: the sorted ``(name, repr(value))`` pairs."""
    return tuple(sorted((k, repr(v)) for k, v in config.items()))


# -- the scalar package power model, one function per formula ----------------


def voltage_at_frequency(
    freq_ghz: float, freq_min_ghz: float, freq_max_ghz: float, params: PowerModelParams
) -> float:
    """Operating voltage for a core frequency (linear V/f approximation)."""
    if freq_max_ghz <= freq_min_ghz:
        raise ValueError("freq_max must exceed freq_min")
    frac = (freq_ghz - freq_min_ghz) / (freq_max_ghz - freq_min_ghz)
    frac = min(max(frac, 0.0), 1.0)
    return params.v_min + (params.v_max - params.v_min) * frac


def core_dynamic_power(
    freq_ghz: float,
    freq_min_ghz: float,
    freq_max_ghz: float,
    active_cores: int,
    activity_factor: float,
    params: PowerModelParams,
    efficiency_multiplier: float = 1.0,
) -> float:
    """Dynamic power of the active cores (W)."""
    if active_cores < 0:
        raise ValueError("active_cores must be >= 0")
    volt = voltage_at_frequency(freq_ghz, freq_min_ghz, freq_max_ghz, params)
    per_core = params.core_capacitance * activity_factor * volt * volt * freq_ghz
    return float(per_core * active_cores * efficiency_multiplier)


def uncore_power(
    uncore_ghz: float,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
    dram_intensity: float,
    params: PowerModelParams,
) -> float:
    """Uncore (mesh + LLC + memory controller) power (W)."""
    if uncore_max_ghz <= uncore_min_ghz:
        raise ValueError("uncore_max must exceed uncore_min")
    frac = min(max((uncore_ghz - uncore_min_ghz) / (uncore_max_ghz - uncore_min_ghz), 0.0), 1.0)
    utilization = 0.3 + 0.7 * min(max(dram_intensity, 0.0), 1.0)
    dynamic = (params.uncore_max_power - params.uncore_idle_power) * frac * utilization
    return params.uncore_idle_power + dynamic


def static_power(temperature_c: float, params: PowerModelParams) -> float:
    """Leakage power, increasing with die temperature (W)."""
    delta = temperature_c - params.ref_temperature
    return params.static_power * max(0.2, 1.0 + params.leakage_temp_coeff * delta)


def frequency_independent_power(
    demand: PhaseDemand,
    uncore_ghz: float,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
    params: PowerModelParams,
    temperature_c: float | None = None,
) -> tuple[float, float, float, float]:
    """The terms of :func:`package_power` that do not depend on core frequency.

    Returns ``(activity, p_uncore, p_static, p_dram)``: the core activity
    factor to pass to :func:`core_dynamic_power`, and the uncore, static
    and DRAM powers (W).  A P-state walk computes these once and only the
    core term per probed frequency.

    The core activity factor is weighted by how core-bound the phase is:
    stall-heavy (memory/communication bound) phases keep cores busy
    spinning or waiting at far lower switching activity.
    """
    busy_weight = (
        demand.core_fraction * 1.0
        + demand.memory_fraction * 0.55
        + demand.comm_fraction * 0.35
        + demand.other_fraction * 0.4
    )
    activity = demand.activity_factor * busy_weight
    p_uncore = uncore_power(
        uncore_ghz, uncore_min_ghz, uncore_max_ghz, demand.dram_intensity, params
    )
    temp = params.ref_temperature if temperature_c is None else temperature_c
    p_static = static_power(temp, params)
    p_dram = dram_power(demand.dram_intensity, params)
    return activity, p_uncore, p_static, p_dram


def package_power(
    demand: PhaseDemand,
    freq_ghz: float,
    uncore_ghz: float,
    active_cores: int,
    freq_min_ghz: float,
    freq_max_ghz: float,
    uncore_min_ghz: float,
    uncore_max_ghz: float,
    params: PowerModelParams,
    efficiency_multiplier: float = 1.0,
    temperature_c: float | None = None,
) -> float:
    """Total package power (core + uncore + static) plus DRAM power (W)."""
    activity, p_uncore, p_static, p_dram = frequency_independent_power(
        demand, uncore_ghz, uncore_min_ghz, uncore_max_ghz, params, temperature_c
    )
    p_core = core_dynamic_power(
        freq_ghz,
        freq_min_ghz,
        freq_max_ghz,
        active_cores,
        activity,
        params,
        efficiency_multiplier,
    )
    return p_core + p_uncore + p_static + p_dram


def phase_duration(
    demand: PhaseDemand,
    freq_ghz: float,
    uncore_ghz: float,
    threads: int,
    ref_freq_ghz: float,
    ref_uncore_ghz: float,
    params: PowerModelParams,
    comm_seconds_override: float | None = None,
) -> float:
    """Duration of a phase at the given operating point (seconds).

    ``comm_seconds_override`` lets the MPI layer substitute the actual
    (imbalance-dependent) communication time; when ``None`` the nominal
    communication fraction of the reference duration is used.
    """
    if freq_ghz <= 0 or uncore_ghz <= 0:
        raise ValueError("frequencies must be positive")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    thread_factor = demand.thread_scaling(threads)
    base = demand.ref_seconds
    core_time = base * demand.core_fraction * (ref_freq_ghz / freq_ghz) * thread_factor
    mem_time = (
        base
        * demand.memory_fraction
        * (ref_uncore_ghz / uncore_ghz) ** params.uncore_perf_exponent
        * (0.5 + 0.5 * thread_factor)
    )
    other_time = base * demand.other_fraction
    if comm_seconds_override is None:
        comm_time = base * demand.comm_fraction
    else:
        comm_time = max(0.0, float(comm_seconds_override))
    return core_time + mem_time + other_time + comm_time


def effective_ipc(
    demand: PhaseDemand,
    duration_s: float,
    freq_ghz: float,
    threads: int,
    ref_freq_ghz: float,
) -> float:
    """Average retired instructions per cycle per core over the phase.

    The instruction count of the phase is fixed by the work, so IPC falls
    when the duration stretches (e.g. stalled on memory at high core
    frequency) and rises when the core-bound portion dominates.
    """
    if duration_s <= 0:
        return 0.0
    knob_sensitive = demand.core_fraction + demand.memory_fraction + demand.other_fraction
    ref_busy = demand.ref_seconds * max(knob_sensitive, 1e-9)
    instructions = demand.ops_per_cycle_ref * (ref_freq_ghz * 1e9) * ref_busy * demand.ref_threads
    cycles = freq_ghz * 1e9 * duration_s * threads
    if cycles <= 0:
        return 0.0
    return float(instructions / cycles)


def effective_flops(demand: PhaseDemand, duration_s: float) -> float:
    """Average useful FLOP/s over the phase."""
    if duration_s <= 0:
        return 0.0
    useful_fraction = demand.core_fraction + demand.memory_fraction + demand.other_fraction
    total_flops = demand.flops_per_second_ref * demand.ref_seconds * max(useful_fraction, 1e-9)
    return float(total_flops / duration_s)


# -- the RC thermal step through the model's property chain ------------------


def thermal_advance(model, power_w: float, dt_s: float) -> float:
    """Advance a ``ThermalModel`` ``dt_s`` seconds at constant power; return temp."""
    if dt_s < 0:
        raise ValueError("dt must be >= 0")
    if power_w < 0:
        raise ValueError("power must be >= 0")
    target = model.steady_state_c(power_w)
    tau = model.spec.time_constant_s
    alpha = 1.0 - float(np.exp(-dt_s / tau))
    model._temps[model._index] += (target - float(model._temps[model._index])) * alpha
    model._bump_version()
    return float(model._temps[model._index])
