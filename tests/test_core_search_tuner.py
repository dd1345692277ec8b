"""Tests for the search algorithms, the autotuner loop and the co-tuner."""

import gc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import config_key_by_pairs, sample_many_by_name
from repro.core.constraints import ConstraintSet, ForbiddenCombination, MetricConstraint
from repro.core.cotuner import CoTuner
from repro.core.search import (
    GaussianProcessSearch,
    GeneticAlgorithm,
    GridSearch,
    LatinHypercubeSearch,
    RandomForestSearch,
    RandomSearch,
    SimulatedAnnealing,
    make_search,
)
from repro.core.parameters import FloatParameter, IntegerParameter
from repro.core.search.base import SEARCH_REGISTRY, config_key
from repro.core.search.forest import RandomForestRegressor, RegressionTree
from repro.core.space import ParameterSpace
from repro.core.tuner import Autotuner

ALL_SEARCHES = ["random", "grid", "lhs", "annealing", "genetic", "bayesian", "forest"]


def quadratic_space():
    return ParameterSpace.from_dict(
        {"x": [1, 2, 4, 8, 16, 32, 64], "y": [0.1, 0.2, 0.4, 0.8], "algo": ["a", "b", "c"]},
        name="synthetic",
    )


def quadratic_evaluator(config):
    value = (
        abs(np.log2(config["x"]) - 3.0)
        + abs(config["y"] - 0.4) * 5.0
        + {"a": 0.5, "b": 0.0, "c": 1.0}[config["algo"]]
    )
    return {"runtime_s": 1.0 + value, "energy_j": (1.0 + value) * 200.0, "power_w": 200.0}

OPTIMUM = {"x": 8, "y": 0.4, "algo": "b"}


# -- registry / factory -----------------------------------------------------------------


def test_registry_contains_all_algorithms():
    assert set(ALL_SEARCHES) <= set(SEARCH_REGISTRY)
    with pytest.raises(ValueError):
        make_search("simulated-annealing-typo", quadratic_space())


def test_make_search_returns_instances():
    space = quadratic_space()
    assert isinstance(make_search("random", space), RandomSearch)
    assert isinstance(make_search("forest", space), RandomForestSearch)
    assert isinstance(make_search("bayesian", space), GaussianProcessSearch)


# -- individual algorithms -----------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SEARCHES)
def test_every_search_proposes_valid_configs_and_learns(name):
    space = quadratic_space()
    search = make_search(name, space, seed=2)
    for _ in range(15):
        config = search.ask()
        space.validate(config)
        metrics = quadratic_evaluator(config)
        search.tell(config, metrics["runtime_s"])
    best_config, best_value = search.best()
    assert best_value <= max(obj for _, obj in search.history)
    assert len(search.history) == 15


def test_random_search_avoids_repeats():
    search = RandomSearch(quadratic_space(), seed=0)
    seen = [tuple(sorted(search.ask().items())) for _ in range(20)]
    assert len(set(seen)) == 20


def test_grid_search_exhausts_space():
    space = ParameterSpace.from_dict({"a": [1, 2], "b": ["x", "y"]})
    search = GridSearch(space, resolution=4)
    configs = []
    while not search.is_exhausted():
        configs.append(search.ask())
    assert len(configs) == 4
    assert {(c["a"], c["b"]) for c in configs} == {(1, "x"), (1, "y"), (2, "x"), (2, "y")}


def test_lhs_fills_dimensions():
    space = quadratic_space()
    search = LatinHypercubeSearch(space, seed=1, batch=8)
    values = {search.ask()["x"] for _ in range(16)}
    assert len(values) >= 4  # stratified sampling covers several levels


def test_annealing_accepts_improvements_and_restarts():
    search = SimulatedAnnealing(quadratic_space(), seed=3, restarts_after=5)
    for _ in range(30):
        config = search.ask()
        search.tell(config, quadratic_evaluator(config)["runtime_s"])
    assert search.best()[1] < 3.0


def test_genetic_population_is_bounded():
    search = GeneticAlgorithm(quadratic_space(), seed=4, population_size=6)
    for _ in range(25):
        config = search.ask()
        search.tell(config, quadratic_evaluator(config)["runtime_s"])
    assert len(search._population) <= 6


def test_surrogate_searches_find_optimum_quickly():
    for name in ("forest", "bayesian"):
        space = quadratic_space()
        tuner = Autotuner(space, quadratic_evaluator, objective="runtime",
                          search=name, max_evals=45, seed=5)
        result = tuner.run()
        assert result.best_objective <= 1.5, name


# -- regression forest internals ----------------------------------------------------------------


def test_regression_tree_fits_simple_function():
    rng = np.random.default_rng(0)
    x = rng.random((200, 2))
    y = 3.0 * x[:, 0] + (x[:, 1] > 0.5)
    tree = RegressionTree(max_depth=6).fit(x, y, rng)
    pred = tree.predict(x)
    assert np.mean((pred - y) ** 2) < 0.15


def test_random_forest_mean_and_uncertainty():
    rng = np.random.default_rng(1)
    x = rng.random((150, 3))
    y = x[:, 0] * 2.0 + np.sin(3 * x[:, 1])
    forest = RandomForestRegressor(n_trees=10).fit(x, y, rng)
    mean, std = forest.predict(x[:10])
    assert mean.shape == (10,) and std.shape == (10,)
    assert np.all(std > 0)


def test_forest_requires_fit_before_predict():
    with pytest.raises(RuntimeError):
        RandomForestRegressor().predict(np.zeros((1, 2)))


# -- autotuner loop --------------------------------------------------------------------------------


def test_autotuner_records_all_evaluations():
    tuner = Autotuner(quadratic_space(), quadratic_evaluator, search="random",
                      max_evals=20, seed=1)
    result = tuner.run()
    assert result.evaluations == 20
    assert len(result.database) == 20
    assert result.best_config is not None
    assert result.best_metrics["runtime_s"] == pytest.approx(result.best_objective)
    assert len(result.convergence) == 20
    # convergence is monotonically non-increasing
    assert all(b <= a + 1e-12 for a, b in zip(result.convergence, result.convergence[1:]))


def test_autotuner_constraint_marks_infeasible():
    constraints = ConstraintSet().add(MetricConstraint(metric="runtime_s", upper=2.0))
    tuner = Autotuner(quadratic_space(), quadratic_evaluator, search="random",
                      constraints=constraints, max_evals=30, seed=2)
    result = tuner.run()
    assert result.infeasible_evaluations > 0
    assert result.best_metrics["runtime_s"] <= 2.0


def test_autotuner_handles_evaluator_exceptions():
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise RuntimeError("transient failure")
        return quadratic_evaluator(config)

    tuner = Autotuner(quadratic_space(), flaky, search="random", max_evals=15, seed=3)
    result = tuner.run()
    assert result.failed_evaluations > 0
    assert result.best_config is not None


def test_autotuner_callback_invoked():
    seen = []
    tuner = Autotuner(quadratic_space(), quadratic_evaluator, search="random",
                      max_evals=5, seed=0)
    tuner.run(callback=lambda index, record: seen.append(index))
    assert seen == [0, 1, 2, 3, 4]


def test_autotuner_maximization_objective():
    tuner = Autotuner(quadratic_space(), quadratic_evaluator, objective="flops_per_watt",
                      search="random", max_evals=10, seed=1)
    # flops_per_watt is absent from the evaluator output: every evaluation is
    # penalised but the loop still completes.
    result = tuner.run()
    assert result.evaluations == 10


def test_autotuner_validation():
    with pytest.raises(ValueError):
        Autotuner(quadratic_space(), quadratic_evaluator, max_evals=0)


# -- co-tuner ------------------------------------------------------------------------------------------


def test_cotuner_splits_layers_and_finds_cross_layer_optimum():
    app_space = ParameterSpace.from_dict({"solver": ["a", "b"]}, layer="application")
    rt_space = ParameterSpace.from_dict({"cap": [100, 200, 300]}, layer="runtime")

    def evaluator(nested):
        solver = nested["application"]["solver"]
        cap = nested["runtime"]["cap"]
        # Cross-layer interaction: solver "a" prefers high cap, "b" low cap.
        runtime = 10.0 - (cap / 100.0 if solver == "a" else (400.0 - cap) / 100.0)
        return {"runtime_s": runtime, "power_w": float(cap)}

    cotuner = CoTuner(
        {"application": app_space, "runtime": rt_space}, evaluator,
        objective="runtime", search="grid", max_evals=10, seed=0,
    )
    result = cotuner.run()
    assert set(result.best_by_layer) == {"application", "runtime"}
    best = result.best_by_layer
    assert (best["application"]["solver"], best["runtime"]["cap"]) in {("a", 300), ("b", 100)}
    assert result.best_objective == pytest.approx(7.0)


def test_cotuner_constraint_limits_choice():
    app_space = ParameterSpace.from_dict({"solver": ["a", "b"]}, layer="application")
    rt_space = ParameterSpace.from_dict({"cap": [100, 200, 300]}, layer="runtime")

    def evaluator(nested):
        cap = nested["runtime"]["cap"]
        return {"runtime_s": 400.0 - cap, "power_w": float(cap)}

    constraints = ConstraintSet().add(MetricConstraint.power_cap(250.0))
    cotuner = CoTuner(
        {"application": app_space, "runtime": rt_space}, evaluator,
        objective="runtime", constraints=constraints, search="grid", max_evals=10,
    )
    result = cotuner.run()
    assert result.best_by_layer["runtime"]["cap"] == 200


def test_cotuner_flatten_split_roundtrip():
    cotuner = CoTuner(
        {"application": ParameterSpace.from_dict({"p": [1, 2]}, layer="application"),
         "system": ParameterSpace.from_dict({"q": ["x"]}, layer="system")},
        evaluator=lambda nested: {"runtime_s": 1.0},
        max_evals=1,
    )
    nested = {"application": {"p": 1}, "system": {"q": "x"}}
    sep = cotuner.SEPARATOR
    flat = {f"application{sep}p": 1, f"system{sep}q": "x"}
    assert cotuner.split(flat) == nested


# -- the configurations a search hands out ------------------------------------
#: Parameter value lists as a ``tuning.open`` envelope carries them: ordinal
#: ints and floats, strings, exactly ``[false, true]``, mixed lists (with
#: ``null``, booleans beside numbers and lists of ints) and one-value lists.
_SCALARS = st.one_of(
    st.integers(-50, 50),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.text("ab1", max_size=2),
    st.booleans(),
    st.none(),
)
_VALUE_LISTS = st.one_of(
    st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=6),
    st.lists(st.text("abc", max_size=3), min_size=1, max_size=5),
    st.just([False, True]),
    st.lists(st.one_of(_SCALARS, st.lists(st.integers(0, 3), max_size=2)),
             min_size=1, max_size=5),
    st.lists(_SCALARS, min_size=1, max_size=1),
)
_PARAMETERS = st.dictionaries(st.text("pqrs", min_size=1, max_size=2), _VALUE_LISTS,
                              min_size=1, max_size=4)


def _reachable_ids(root) -> set:
    """The ids of every object reachable from ``root`` (classes, modules
    and code are not followed)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.CodeType)
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return seen


@pytest.mark.parametrize("name", sorted(SEARCH_REGISTRY))
@settings(max_examples=12, deadline=None)
@given(parameters=_PARAMETERS, seed=st.integers(0, 2**16), told=st.integers(0, 12))
def test_asked_configs_are_valid_and_held_by_no_search(name, parameters, seed, told):
    """What ``tuning.ask`` hands out as drawn: every configuration a search
    proposes over a space built like the service's equals its validation,
    key for key and type for type, and the search keeps no reference to
    the dict."""
    space = ParameterSpace.from_dict(parameters, name="service")
    search = make_search(name, space, seed=seed)
    if told:
        for index, config in enumerate(search.ask_batch(told)):
            search.tell(config, float(index % 5))
    asked = [config for n in (1, 3, 8) for config in search.ask_batch(n)]
    asked.append(search.ask())
    held = _reachable_ids(search)
    for config in asked:
        validated = space.validate(config)
        assert validated == config and list(validated) == list(config)
        assert [type(v) for v in validated.values()] == [type(v) for v in config.values()]
        assert id(config) not in held


@settings(max_examples=80, deadline=None)
@given(parameters=_PARAMETERS, numeric=st.booleans(), forbid=st.booleans(),
       seed=st.integers(0, 2**32 - 1), count=st.integers(0, 24))
def test_sampling_and_keys_match_the_former_row_construction(
    parameters, numeric, forbid, seed, count
):
    """``sample_many`` and ``config_key`` against their former forms: the
    same configurations (key order and value types too), the same
    generator state afterwards and the same keys."""
    space = ParameterSpace.from_dict(parameters, name="service")
    if numeric:
        space.add(IntegerParameter("zi", -5, 40))
        space.add(FloatParameter("zf", 0.5, 8.0, log=True))
    if forbid:
        space.add_constraint(ForbiddenCombination(lambda c: len(repr(c)) % 3 == 0))

    def draw(sample):
        rng = np.random.default_rng(seed)
        try:
            configs = sample(space, rng, count)
        except RuntimeError as error:  # constraints no configuration passes
            configs = str(error)
        return configs, rng.bit_generator.state

    configs, state = draw(lambda space, rng, n: space.sample_many(rng, n))
    expected, expected_state = draw(sample_many_by_name)
    assert configs == expected and state == expected_state
    if isinstance(configs, list):
        assert [list(c) for c in configs] == [list(c) for c in expected]
        assert [[type(v) for v in c.values()] for c in configs] == [
            [type(v) for v in c.values()] for c in expected
        ]
        assert [config_key(c) for c in configs] == [config_key_by_pairs(c) for c in expected]
