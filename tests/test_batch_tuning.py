"""Tests for the batched tuning engine.

Covers the batch ask/tell protocol of every registered search algorithm
(determinism under a fixed seed, validity of proposals), the
Autotuner's equivalence at batch size 1 to the one-at-a-time reference
loop (``oracles.sequential_autotune``), evaluation memoization, the
vectorized ParameterSpace batch APIs, and the O(1) running best of the
performance database.
"""

import numpy as np
import pytest

from oracles import sequential_autotune
from repro.core.constraints import ConstraintSet, ForbiddenCombination, MetricConstraint
from repro.core.cotuner import CoTuner
from repro.core.parameters import (
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    OrdinalParameter,
)
from repro.core.search.base import SEARCH_REGISTRY, SearchAlgorithm, make_search
from repro.core.space import ParameterSpace
from repro.core.tuner import Autotuner, EvaluationCache
from repro.sim.engine import Environment, Event, Process, Timeout
from repro.telemetry.database import PerformanceDatabase

ALL_SEARCHES = sorted(SEARCH_REGISTRY)


def make_space():
    return ParameterSpace.from_dict(
        {"x": [1, 2, 4, 8, 16, 32, 64], "y": [0.1, 0.2, 0.4, 0.8], "algo": ["a", "b", "c"]},
        name="synthetic",
    )


def evaluator(config):
    value = (
        abs(np.log2(config["x"]) - 3.0)
        + abs(config["y"] - 0.4) * 5.0
        + {"a": 0.5, "b": 0.0, "c": 1.0}[config["algo"]]
    )
    return {"runtime_s": 1.0 + value, "energy_j": (1.0 + value) * 200.0, "power_w": 200.0}


# -- batch ask/tell protocol -------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SEARCHES)
def test_ask_batch_proposes_valid_configs(name):
    space = make_space()
    search = make_search(name, space, seed=2)
    told = 0
    for _ in range(3):
        batch = search.ask_batch(8)
        assert 1 <= len(batch) <= 8
        for config in batch:
            space.validate(config)
        search.tell_batch(batch, [evaluator(c)["runtime_s"] for c in batch])
        told += len(batch)
    assert len(search.history) == told


@pytest.mark.parametrize("name", ALL_SEARCHES)
def test_ask_batch_deterministic_for_fixed_seed(name):
    def trajectory():
        search = make_search(name, make_space(), seed=3)
        batches = []
        for _ in range(4):
            batch = search.ask_batch(8)
            batches.append(batch)
            search.tell_batch(batch, [evaluator(c)["runtime_s"] for c in batch])
        return batches

    assert trajectory() == trajectory()


@pytest.mark.parametrize("name", ALL_SEARCHES)
def test_ask_batch_of_one_matches_scalar_ask(name):
    batched = make_search(name, make_space(), seed=9)
    scalar = make_search(name, make_space(), seed=9)
    for _ in range(10):
        (b,) = batched.ask_batch(1)
        s = scalar.ask()
        assert b == s
        batched.tell_batch([b], [evaluator(b)["runtime_s"]])
        scalar.tell(s, evaluator(s)["runtime_s"])


def test_ask_batch_rejects_bad_size():
    search = make_search("random", make_space())
    with pytest.raises(ValueError):
        search.ask_batch(0)


def test_tell_batch_rejects_length_mismatch():
    search = make_search("random", make_space())
    batch = search.ask_batch(3)
    with pytest.raises(ValueError):
        search.tell_batch(batch, [1.0])


def test_grid_ask_batch_short_when_exhausted():
    space = ParameterSpace.from_dict({"a": [1, 2], "b": ["x", "y"]})
    search = make_search("grid", space, resolution=4)
    batch = search.ask_batch(10)
    assert len(batch) == 4
    assert search.is_exhausted()


def test_genetic_ask_batch_breeds_from_population():
    search = make_search("genetic", make_space(), seed=1, population_size=6)
    first = search.ask_batch(6)  # random fill of the initial population
    search.tell_batch(first, [evaluator(c)["runtime_s"] for c in first])
    second = search.ask_batch(6)  # bred generation
    assert len(second) == 6
    assert len(search._population) <= 6


# -- Autotuner ---------------------------------------------------------------------------


class UnfilteredSearch(SearchAlgorithm):
    """Uniform proposals that ignore the space's constraints.

    Every built-in search filters forbidden combinations itself, so only
    a search like this one reaches the tuner's rejection branch.
    """

    name = "unfiltered"

    def ask(self):
        return {param.name: param.sample(self.rng) for param in self.space.parameters()}


def hostile_space():
    """``make_space`` with x == 64 forbidden: 72 of its 84 points allowed."""
    space = make_space()
    space.add_constraint(
        ForbiddenCombination(
            predicate=lambda cfg: cfg["x"] == 64, description="no x=64", required_keys=("x",)
        )
    )
    return space


def raising_evaluator(config):
    if config["algo"] == "c" and config["y"] >= 0.4:
        raise RuntimeError("deterministic failure")
    return evaluator(config)


def assert_reproduces_reference(make_tuner):
    """``make_tuner().run`` equals ``sequential_autotune(make_tuner())``:
    records, callback pairs, search history and every result field."""
    reference_calls, calls = [], []
    reference_tuner, tuner = make_tuner(), make_tuner()
    reference = sequential_autotune(
        reference_tuner, callback=lambda i, r: reference_calls.append((i, r.to_dict()))
    )
    result = tuner.run(callback=lambda i, r: calls.append((i, r.to_dict())))
    assert [r.to_dict() for r in result.database] == [
        r.to_dict() for r in reference.database
    ]
    assert calls == reference_calls
    assert tuner.search.history == reference_tuner.search.history
    for field in ("best_config", "best_metrics", "best_objective", "evaluations",
                  "objective_name", "infeasible_evaluations", "failed_evaluations",
                  "convergence", "cache_hits", "cache_misses"):
        assert getattr(result, field) == getattr(reference, field), field
    return result


@pytest.mark.parametrize("name", ALL_SEARCHES)
def test_batch_size_one_reproduces_sequential_autotuner(name):
    assert_reproduces_reference(
        lambda: Autotuner(make_space(), evaluator, search=name, max_evals=25, seed=7)
    )


@pytest.mark.parametrize("name", ALL_SEARCHES + ["unfiltered"])
def test_batch_size_one_reproduces_sequential_autotuner_on_hostile_runs(name):
    """Forbidden proposals, raising evaluations, infeasible records and
    more evaluations than the 72 allowed configurations."""

    def make_tuner():
        space = hostile_space()
        search = UnfilteredSearch(space, seed=5) if name == "unfiltered" else name
        return Autotuner(
            space, raising_evaluator, search=search, max_evals=80, seed=5,
            constraints=ConstraintSet().add(MetricConstraint(metric="runtime_s", upper=3.0)),
        )

    result = assert_reproduces_reference(make_tuner)
    assert result.failed_evaluations > 0
    assert result.infeasible_evaluations > result.failed_evaluations
    if name == "grid":
        assert result.evaluations == 72  # the grid ran out before max_evals
    if name == "unfiltered":
        assert result.evaluations < 80  # forbidden proposals spent ask slots


def test_batch_autotuner_respects_max_evals_and_orders_records():
    seen = []
    tuner = Autotuner(
        make_space(), evaluator, search="random", max_evals=50, seed=0, batch_size=16
    )
    result = tuner.run(callback=lambda index, record: seen.append(index))
    assert result.evaluations == 50
    assert seen == list(range(50))
    assert all(b <= a + 1e-12 for a, b in zip(result.convergence, result.convergence[1:]))


def test_batch_autotuner_memoizes_repeated_configs():
    calls = []

    def counting(config):
        calls.append(dict(config))
        return evaluator(config)

    tuner = Autotuner(
        make_space(),
        counting,
        search="random",
        max_evals=300,
        seed=0,
        batch_size=32,
        cache_evaluations=True,
    )
    result = tuner.run()
    # 84 possible configurations: everything beyond one visit is a cache hit.
    assert result.evaluations == 300
    assert len(calls) <= 84
    assert result.cache_hits + result.cache_misses == 300
    assert result.cache_hits >= 300 - 84
    # The database still records every evaluation, hits included.
    assert len(result.database) == 300


def test_batch_autotuner_caches_failures_too():
    calls = []

    def failing(config):
        calls.append(dict(config))
        raise RuntimeError("deterministic failure")

    tuner = Autotuner(
        make_space(),
        failing,
        search="random",
        max_evals=120,
        seed=1,
        batch_size=24,
        cache_evaluations=True,
    )
    result = tuner.run()
    assert result.failed_evaluations == 120
    assert len(calls) <= 84


def test_batch_autotuner_constraint_rejections_do_not_evaluate():
    space = make_space()
    space.add_constraint(
        ForbiddenCombination(
            predicate=lambda cfg: cfg["algo"] == "c",
            description="no c",
            required_keys=("algo",),
        )
    )
    calls = []

    def counting(config):
        calls.append(dict(config))
        return evaluator(config)

    # Random search only proposes allowed configs; force rejections through
    # grid search which walks the raw cartesian grid... it also filters.
    # Instead drive an infeasibility constraint on metrics.
    constraints = ConstraintSet().add(MetricConstraint(metric="runtime_s", upper=2.0))
    result = Autotuner(
        space, counting, search="random", max_evals=40, seed=2,
        batch_size=8, constraints=constraints,
    ).run()
    assert all(c["algo"] != "c" for c in calls)
    assert result.infeasible_evaluations > 0
    assert result.best_metrics["runtime_s"] <= 2.0


def test_evaluation_cache_keys_and_stats():
    cache = EvaluationCache()
    key = cache.key({"b": 2, "a": 1})
    assert key == cache.key({"a": 1, "b": 2})  # order-insensitive
    assert cache.get(key) is None
    cache.put(key, ({"runtime_s": 1.0}, False))
    assert cache.get(key) == ({"runtime_s": 1.0}, False)
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def test_cotuner_batched_engine_matches_layers():
    app_space = ParameterSpace.from_dict({"solver": ["a", "b"]}, layer="application")
    rt_space = ParameterSpace.from_dict({"cap": [100, 200, 300]}, layer="runtime")

    def layered(nested):
        solver = nested["application"]["solver"]
        cap = nested["runtime"]["cap"]
        runtime = 10.0 - (cap / 100.0 if solver == "a" else (400.0 - cap) / 100.0)
        return {"runtime_s": runtime, "power_w": float(cap)}

    cotuner = CoTuner(
        {"application": app_space, "runtime": rt_space},
        layered,
        objective="runtime",
        search="grid",
        max_evals=10,
        seed=0,
    )
    result = cotuner.run()
    assert result.best_objective == pytest.approx(7.0)
    best = result.best_by_layer
    assert (best["application"]["solver"], best["runtime"]["cap"]) in {("a", 300), ("b", 100)}


# -- vectorized ParameterSpace -----------------------------------------------------------


def vector_space():
    space = ParameterSpace(name="vec")
    space.add(CategoricalParameter("solver", ["PCG", "GMRES", "BiCGSTAB"]))
    space.add(OrdinalParameter("tile", [4, 8, 16, 32]))
    space.add(IntegerParameter("nodes", 1, 64, log=True))
    space.add(FloatParameter("threshold", 0.1, 0.9))
    return space


def test_encode_many_matches_scalar_encode():
    space = vector_space()
    rng = np.random.default_rng(0)
    configs = [space.sample(rng) for _ in range(32)]
    batch = space.encode_many(configs)
    scalar = np.vstack([space.encode(c) for c in configs])
    assert batch.shape == (32, 4)
    np.testing.assert_allclose(batch, scalar)


def test_decode_many_matches_scalar_decode():
    space = vector_space()
    rng = np.random.default_rng(1)
    matrix = rng.random((32, len(space)))
    batch = space.decode_many(matrix)
    scalar = [space.decode(row) for row in matrix]
    assert batch == scalar


def test_decode_many_validates_shape():
    with pytest.raises(ValueError):
        vector_space().decode_many(np.zeros((3, 2)))
    assert vector_space().decode_many(np.empty((0, 4))) == []


def test_sample_many_respects_constraints_and_count():
    space = vector_space()
    space.add_constraint(
        ForbiddenCombination(
            predicate=lambda cfg: cfg["solver"] == "GMRES" and cfg["nodes"] > 8,
            description="GMRES limited to 8 nodes",
            required_keys=("solver", "nodes"),
        )
    )
    rng = np.random.default_rng(2)
    configs = space.sample_many(rng, 100)
    assert len(configs) == 100
    for config in configs:
        space.validate(config)
        assert not (config["solver"] == "GMRES" and config["nodes"] > 8)
    assert space.sample_many(rng, 0) == []


def test_names_and_parameters_cached_and_invalidated():
    space = vector_space()
    names_a = space.names()
    assert space.names() is names_a  # cached tuple reused
    assert isinstance(names_a, tuple)  # immutable: callers cannot corrupt it
    params_a = space.parameters()
    assert space.parameters() is params_a
    space.add(CategoricalParameter("extra", ["u", "v"]))
    assert space.names() is not names_a
    assert space.names()[-1] == "extra"
    assert [p.name for p in space.parameters()][-1] == "extra"


def test_cardinality_without_materializing_grids():
    space = vector_space()
    expected = 3 * 4 * len(space["nodes"].grid(10)) * 10
    assert space.cardinality() == pytest.approx(expected)
    # grid_size agrees with the materialized grid for every parameter type.
    for param in space.parameters():
        assert param.grid_size(10) == len(param.grid(10))


def test_parameter_batch_roundtrips_match_scalar():
    rng = np.random.default_rng(3)
    params = [
        CategoricalParameter("c", ["a", "b", "c", "d"]),
        OrdinalParameter("o", [1, 2, 4, 8]),
        IntegerParameter("i", 1, 100),
        IntegerParameter("il", 1, 1024, log=True),
        FloatParameter("f", 0.0, 5.0),
        FloatParameter("fl", 0.1, 10.0, log=True),
    ]
    u = rng.random(64)
    for param in params:
        batch_decoded = param.from_unit_array(u)
        assert batch_decoded == [param.from_unit(float(x)) for x in u]
        encoded = param.to_unit_array(batch_decoded)
        np.testing.assert_allclose(
            encoded, [param.to_unit(v) for v in batch_decoded]
        )
        samples = param.sample_array(rng, 16)
        assert len(samples) == 16
        for v in samples:
            param.validate(v)


# -- performance database running best ---------------------------------------------------


def test_database_best_is_maintained_incrementally():
    db = PerformanceDatabase("t")
    rng = np.random.default_rng(4)
    for i in range(200):
        db.add_evaluation(
            config={"i": i},
            metrics={"runtime_s": 1.0},
            objective=float(rng.normal()),
            feasible=bool(rng.random() < 0.7),
        )
    records = db.records()
    feasible = [r for r in records if r.feasible]
    assert db.best(minimize=True) is min(feasible, key=lambda r: r.objective)
    assert db.best(minimize=False) is max(feasible, key=lambda r: r.objective)
    assert db.best(minimize=True, feasible_only=False) is min(
        records, key=lambda r: r.objective
    )


def test_database_best_falls_back_to_infeasible_pool():
    db = PerformanceDatabase("t")
    db.add_evaluation(config={}, metrics={}, objective=3.0, feasible=False)
    db.add_evaluation(config={}, metrics={}, objective=1.0, feasible=False)
    assert db.best(minimize=True).objective == 1.0
    assert db.best(minimize=True, feasible_only=True).objective == 1.0
    assert PerformanceDatabase("empty").best() is None


def test_database_best_ties_keep_first_record():
    db = PerformanceDatabase("t")
    first = db.add_evaluation(config={"k": 1}, metrics={}, objective=1.0)
    db.add_evaluation(config={"k": 2}, metrics={}, objective=1.0)
    assert db.best(minimize=True) is first
    assert db.best(minimize=False) is first


def test_database_roundtrip_preserves_best():
    db = PerformanceDatabase("t")
    db.add_evaluation(config={"k": 1}, metrics={}, objective=2.0)
    db.add_evaluation(config={"k": 2}, metrics={}, objective=1.0)
    clone = PerformanceDatabase.from_json(db.to_json())
    assert clone.best().objective == 1.0


# -- sim engine slots --------------------------------------------------------------------


def test_sim_engine_classes_have_no_dict():
    env = Environment()
    event = Event(env)
    timeout = Timeout(env, 1.0)

    def waiter():
        yield timeout

    process = Process(env, waiter())
    for obj in (env, event, timeout, process):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.arbitrary_new_attribute = 1


def test_sim_engine_still_runs_with_slots():
    env = Environment()
    log = []

    def actor():
        yield env.timeout(1.0)
        log.append(env.now)
        yield env.timeout(2.0)
        log.append(env.now)
        return "done"

    proc = env.process(actor())
    value = env.run(proc)
    assert value == "done"
    assert log == [1.0, 3.0]
