"""Tests for typed parameters, parameter spaces, constraints and objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import ConstraintSet, ForbiddenCombination, MetricConstraint
from repro.core.objectives import PENALTY_OBJECTIVE, WeightedObjective, make_objective
from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    OrdinalParameter,
)
from repro.core.space import ParameterSpace

RNG = np.random.default_rng(0)


# -- parameters ------------------------------------------------------------------


def test_categorical_validate_and_encode():
    param = CategoricalParameter("solver", ["PCG", "GMRES", "BiCGSTAB"])
    assert param.validate("PCG") == "PCG"
    with pytest.raises(ValueError):
        param.validate("SuperLU")
    assert param.to_unit("PCG") == pytest.approx(0.0)
    assert param.to_unit("BiCGSTAB") == pytest.approx(1.0)
    assert param.from_unit(0.49) == "GMRES"


def test_categorical_neighbors_differ():
    param = CategoricalParameter("x", ["a", "b", "c"])
    assert param.neighbors("a", RNG)[0] != "a"


def test_ordinal_neighbors_are_adjacent():
    param = OrdinalParameter("tile", [4, 8, 16, 32])
    assert set(param.neighbors(8, RNG)) == {4, 16}
    assert param.neighbors(4, RNG) == [8]


def test_boolean_parameter():
    param = BooleanParameter("flag")
    assert param.validate(True) is True
    with pytest.raises(ValueError):
        param.validate("yes")
    assert param.neighbors(True, RNG) == [False]


def test_integer_parameter_bounds_and_log_scale():
    param = IntegerParameter("n", 1, 1024, log=True)
    assert param.validate(64) == 64
    with pytest.raises(ValueError):
        param.validate(2000)
    assert param.from_unit(0.0) == 1
    assert param.from_unit(1.0) == 1024
    mid = param.from_unit(0.5)
    assert 20 <= mid <= 50  # geometric midpoint of 1..1024 is 32


def test_float_parameter_roundtrip_and_grid():
    param = FloatParameter("threshold", 0.1, 0.9)
    value = 0.37
    assert param.from_unit(param.to_unit(value)) == pytest.approx(value)
    grid = param.grid(5)
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(0.9)


def test_parameter_constructor_validation():
    with pytest.raises(ValueError):
        CategoricalParameter("x", [])
    with pytest.raises(ValueError):
        IntegerParameter("x", 10, 1)
    with pytest.raises(ValueError):
        FloatParameter("x", 0.0, 1.0, log=True)


@settings(max_examples=50, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0))
def test_property_integer_unit_roundtrip_stable(u):
    param = IntegerParameter("n", 2, 200)
    value = param.from_unit(u)
    assert 2 <= value <= 200
    assert param.from_unit(param.to_unit(value)) == value


@settings(max_examples=50, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0))
def test_property_categorical_decode_always_valid(u):
    param = CategoricalParameter("c", ["a", "b", "c", "d", "e"])
    assert param.from_unit(u) in param.values


# -- parameter space ----------------------------------------------------------------


def make_space():
    space = ParameterSpace(name="test")
    space.add(CategoricalParameter("solver", ["PCG", "GMRES"], layer="application"))
    space.add(OrdinalParameter("tile", [4, 8, 16, 32], layer="system_software"))
    space.add(IntegerParameter("nodes", 1, 8, layer="system"))
    return space


def test_space_from_dict_types():
    space = ParameterSpace.from_dict(
        {"solver": ["a", "b"], "tile": [4, 8, 16], "flag": [False, True]}
    )
    assert isinstance(space["solver"], CategoricalParameter)
    assert isinstance(space["tile"], OrdinalParameter)
    assert isinstance(space["flag"], BooleanParameter)


def test_space_duplicate_parameter_rejected():
    space = make_space()
    with pytest.raises(ValueError):
        space.add(CategoricalParameter("solver", ["x"]))


def test_space_validate_unknown_and_missing():
    space = make_space()
    with pytest.raises(KeyError):
        space.validate({"solver": "PCG", "tile": 8, "nodes": 2, "extra": 1})
    with pytest.raises(KeyError):
        space.validate({"solver": "PCG"})


def test_space_sample_respects_constraints():
    space = make_space()
    space.add_constraint(
        ForbiddenCombination(
            predicate=lambda cfg: cfg["solver"] == "GMRES" and cfg["nodes"] > 4,
            description="GMRES limited to 4 nodes",
            required_keys=("solver", "nodes"),
        )
    )
    rng = np.random.default_rng(3)
    for _ in range(50):
        config = space.sample(rng)
        assert not (config["solver"] == "GMRES" and config["nodes"] > 4)


def test_space_encode_decode_roundtrip():
    space = make_space()
    config = {"solver": "GMRES", "tile": 16, "nodes": 5}
    vector = space.encode(config)
    assert vector.shape == (3,)
    decoded = space.decode(vector)
    assert decoded == config


def test_space_grid_and_cardinality():
    space = make_space()
    grid = list(space.grid_configurations(resolution=8))
    assert len(grid) == 2 * 4 * 8
    assert space.cardinality() == pytest.approx(2 * 4 * 8)


def test_space_subspace_and_merge_and_layers():
    space = make_space()
    other = ParameterSpace([BooleanParameter("backfill", layer="system")], name="rm")
    merged = space.merge(other)
    assert set(merged.names()) == {"solver", "tile", "nodes", "backfill"}
    assert set(space.layers()) == {"application", "system_software", "system"}


def test_space_neighbors_change_one_parameter():
    space = make_space()
    rng = np.random.default_rng(1)
    config = {"solver": "PCG", "tile": 8, "nodes": 4}
    for neighbor in space.neighbors(config, rng):
        differences = sum(1 for k in config if neighbor[k] != config[k])
        assert differences == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000_000))
def test_property_space_samples_are_valid_and_roundtrip(seed):
    space = make_space()
    rng = np.random.default_rng(seed)
    config = space.sample(rng)
    validated = space.validate(config)
    assert validated == config
    assert space.decode(space.encode(config)) == config


# -- constraints --------------------------------------------------------------------------


def test_metric_constraint_power_cap():
    constraint = MetricConstraint.power_cap(500.0)
    assert constraint.allows_metrics({"power_w": 499.0})
    assert not constraint.allows_metrics({"power_w": 600.0})
    assert constraint.allows_metrics({"runtime_s": 10.0})  # metric absent: allowed


def test_metric_constraint_bounds_validation():
    with pytest.raises(ValueError):
        MetricConstraint(metric="power_w")
    lower = MetricConstraint(metric="ipc", lower=1.0)
    assert not lower.allows_metrics({"ipc": 0.5})


def test_constraint_set_combines_config_and_metric_checks():
    constraints = ConstraintSet()
    constraints.add(MetricConstraint.power_cap(100.0))
    constraints.add(
        ForbiddenCombination(predicate=lambda cfg: cfg.get("x") == 1, description="no x=1")
    )
    assert not constraints.allows_config({"x": 1})
    assert constraints.allows_config({"x": 2})
    assert not constraints.allows_metrics({"power_w": 200.0})
    assert constraints.allows_metrics({"power_w": 50.0})
    assert len(constraints.describe()) == 2


def test_forbidden_combination_requires_keys():
    constraint = ForbiddenCombination(
        predicate=lambda cfg: cfg["a"] > cfg["b"], description="a<=b",
        required_keys=("a", "b"),
    )
    assert constraint.allows_config({"a": 5})  # b missing: not consulted
    assert not constraint.allows_config({"a": 5, "b": 1})


# -- objectives ------------------------------------------------------------------------------


def test_make_objective_directions():
    runtime = make_objective("runtime")
    throughput = make_objective("throughput")
    metrics = {"runtime_s": 10.0, "throughput_jobs_per_hour": 50.0}
    assert runtime(metrics) == pytest.approx(10.0)
    assert throughput(metrics) == pytest.approx(-50.0)
    assert throughput.readable(throughput(metrics)) == pytest.approx(50.0)


def test_make_objective_unknown_name():
    with pytest.raises(ValueError):
        make_objective("nonsense_metric")


def test_objective_missing_metric_penalised():
    assert make_objective("energy")({}) == PENALTY_OBJECTIVE


def test_weighted_objective():
    weighted = WeightedObjective(
        terms=((make_objective("runtime"), 1.0), (make_objective("energy"), 0.001))
    )
    value = weighted({"runtime_s": 10.0, "energy_j": 2000.0})
    assert value == pytest.approx(12.0)
    assert weighted({"runtime_s": 10.0}) == PENALTY_OBJECTIVE
