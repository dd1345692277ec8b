"""Tests for the experiment-campaign subsystem (``repro.experiments``).

Covers the declarative scenario layer (validation + serialisation), the
registry, grid expansion (seeds × budget-trace segments), executor
parity (the campaign determinism contract: a thread- or process-pool
campaign is result-identical to the sequential loop), columnar capture,
cross-seed aggregation, the vectorised ``Cluster.reset_nodes`` satellite
and the CLI.
"""

import json

import numpy as np
import pytest

from repro.analysis.reporting import aggregate_across_seeds
from repro.experiments import (
    BudgetTrace,
    Campaign,
    ScenarioSpec,
    build_scenario,
    derive_seeds,
    get_use_case,
    list_use_cases,
    run_registered,
)
from repro.experiments.__main__ import main as cli_main
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.telemetry.database import PerformanceDatabase
from repro.telemetry.sharding import ShardedPerformanceDatabase

#: Cheap parameters shared by the campaign tests.
UC6_PARAMS = {"n_nodes": 2, "n_iterations": 6}
UC7_PARAMS = {"n_nodes": 2, "n_iterations": 6}


# -- BudgetTrace ------------------------------------------------------------
def test_budget_trace_piecewise_semantics():
    trace = BudgetTrace(times_s=(0.0, 600.0, 1800.0), watts_per_node=(280.0, 220.0, None))
    assert trace.value_at(0.0) == 280.0
    assert trace.value_at(599.9) == 280.0
    assert trace.value_at(600.0) == 220.0
    assert trace.value_at(1e9) is None
    assert len(trace) == 3
    assert trace.segments() == ((0.0, 280.0), (600.0, 220.0), (1800.0, None))


def test_budget_trace_validation():
    with pytest.raises(ValueError):
        BudgetTrace(times_s=(), watts_per_node=())
    with pytest.raises(ValueError):
        BudgetTrace(times_s=(10.0,), watts_per_node=(100.0,))  # must start at 0
    with pytest.raises(ValueError):
        BudgetTrace(times_s=(0.0, 0.0), watts_per_node=(100.0, 90.0))
    with pytest.raises(ValueError):
        BudgetTrace(times_s=(0.0,), watts_per_node=(-5.0,))
    with pytest.raises(ValueError):
        BudgetTrace(times_s=(0.0, 60.0), watts_per_node=(100.0,))


def test_budget_trace_round_trip():
    trace = BudgetTrace(times_s=(0.0, 300.0), watts_per_node=(250.0, None))
    assert BudgetTrace.from_dict(trace.to_dict()) == trace
    # and through actual JSON text
    assert BudgetTrace.from_dict(json.loads(json.dumps(trace.to_dict()))) == trace


# -- ScenarioSpec -----------------------------------------------------------
def test_scenario_spec_defaults_and_validation():
    spec = ScenarioSpec(use_case="uc6", seeds=(3, 4))
    assert spec.name == "uc6"  # defaults to the use case
    assert spec.seeds == (3, 4)
    assert spec.n_runs == 2
    with pytest.raises(ValueError):
        ScenarioSpec(use_case="uc6", seeds=())
    with pytest.raises(ValueError):
        ScenarioSpec(use_case="uc6", seeds=(1, 1))
    with pytest.raises(ValueError):
        ScenarioSpec(use_case="")


def test_scenario_spec_round_trip_with_trace():
    spec = ScenarioSpec(
        use_case="uc3",
        name="trace-study",
        params={"max_evals": 4},
        seeds=(1, 2),
        budget_trace=BudgetTrace((0.0, 60.0), (250.0, 200.0)),
        tags={"campaign": "night"},
    )
    restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec
    assert restored.n_runs == 4  # 2 seeds x 2 segments


# -- registry ---------------------------------------------------------------
def test_registry_has_all_seven_use_cases():
    names = [d.name for d in list_use_cases()]
    assert names == ["trace", "uc1", "uc2", "uc3", "uc4", "uc5", "uc6", "uc7"]


def test_registry_defaults_are_introspected():
    defn = get_use_case("uc6")
    assert defn.defaults == {"n_nodes": 4, "n_iterations": 25}
    assert defn.budget_param is None
    assert get_use_case("uc1").budget_param == "per_node_budget_w"


def test_registry_rejects_unknown_use_case_and_params():
    with pytest.raises(KeyError):
        get_use_case("uc99")
    with pytest.raises(ValueError):
        build_scenario("uc6", params={"not_a_param": 1})
    with pytest.raises(ValueError):
        run_registered("uc6", seed=1, bogus=2)
    # a budget trace on a budget-less use case is rejected up front
    with pytest.raises(ValueError):
        build_scenario(
            "uc6", budget_trace=BudgetTrace((0.0,), (100.0,))
        )


def test_derive_seeds_deterministic_and_distinct():
    seeds = derive_seeds(1, 4)
    assert seeds == derive_seeds(1, 4)
    assert len(set(seeds)) == 4
    assert derive_seeds(2, 4) != seeds
    with pytest.raises(ValueError):
        derive_seeds(1, 0)


# -- expansion --------------------------------------------------------------
def test_campaign_expand_grid_counts_and_order():
    scenarios = [
        build_scenario("uc6", params=UC6_PARAMS, seeds=(1, 2, 3)),
        build_scenario("uc7", params=UC7_PARAMS, seeds=(5,)),
    ]
    campaign = Campaign(scenarios)
    specs = campaign.expand()
    assert campaign.total_runs == len(specs) == 4
    assert [(s.use_case, s.seed) for s in specs] == [
        ("uc6", 1), ("uc6", 2), ("uc6", 3), ("uc7", 5),
    ]


def test_campaign_expand_budget_trace_segments():
    trace = BudgetTrace((0.0, 600.0), (260.0, None))
    scenario = build_scenario(
        "uc3", params={"max_evals": 4}, seeds=(1, 2), budget_trace=trace
    )
    specs = Campaign([scenario]).expand()
    assert len(specs) == 4
    caps = [(s.seed, s.segment, s.params["node_power_cap_w"]) for s in specs]
    assert caps == [(1, 0, 260.0), (1, 1, None), (2, 0, 260.0), (2, 1, None)]
    assert specs[0].segment_start_s == 0.0 and specs[1].segment_start_s == 600.0


def test_campaign_rejects_duplicate_scenario_names_and_empty():
    with pytest.raises(ValueError):
        Campaign([])
    spec = build_scenario("uc6", params=UC6_PARAMS)
    with pytest.raises(ValueError):
        Campaign([spec, spec])


# -- execution + determinism -----------------------------------------------
def _toy_campaign(name: str) -> Campaign:
    return Campaign(
        [
            build_scenario("uc6", params=UC6_PARAMS, seeds=(1, 2)),
            build_scenario("uc7", params=UC7_PARAMS, seeds=(1, 2)),
        ],
        name=name,
    )


def _assert_pool_matches_sequential_loop(executor: str) -> None:
    """The determinism contract: scenario×seed grid through a pool equals
    the plain sequential loop, result for result."""
    sequential = [
        run_registered("uc6", seed=s, **UC6_PARAMS) for s in (1, 2)
    ] + [run_registered("uc7", seed=s, **UC7_PARAMS) for s in (1, 2)]

    result = _toy_campaign("par").run(executor=executor, max_workers=2)
    assert [r.result for r in result.runs] == sequential

    serial = _toy_campaign("ser").run(executor="serial")
    assert [r.metrics for r in serial.runs] == [r.metrics for r in result.runs]
    assert [r.objective for r in serial.runs] == [r.objective for r in result.runs]


def test_campaign_process_executor_matches_sequential_loop():
    _assert_pool_matches_sequential_loop("process")


def test_campaign_thread_executor_matches_sequential_loop():
    """No journal and no budget: the whole grid in one map over the pool."""
    _assert_pool_matches_sequential_loop("thread")


def test_campaign_captures_into_columnar_database_with_tags():
    result = _toy_campaign("cap").run()
    db = result.database
    assert isinstance(db, PerformanceDatabase)
    assert len(db) == 4
    assert db.tag_values("use_case") == ["uc6", "uc7"]
    assert db.tag_values("seed") == ["1", "2"]
    uc6_records = db.lookup(use_case="uc6")
    assert len(uc6_records) == 2
    assert all(r.feasible for r in db)
    assert all(r.config["seed"] in (1, 2) for r in db)
    # the objective column is the registered metric of each use case
    rec = db.lookup(use_case="uc7", seed="1")[0]
    assert rec.objective == rec.metrics["energy_savings.coordinated"]
    best = result.best("uc6")
    assert best is not None and best.tags["use_case"] == "uc6"


def _failing_scenario():
    # n_iterations=0 raises ValueError inside the application constructor —
    # a deterministic failure the campaign must record, not propagate.
    return build_scenario("uc6", params={"n_nodes": 2, "n_iterations": 0})


def test_campaign_failed_runs_are_captured_not_raised():
    result = Campaign([_failing_scenario()]).run()
    assert len(result.runs) == 1
    run = result.runs[0]
    assert not run.feasible
    assert run.result is None
    assert run.metrics == {"error": 1.0}
    assert "n_iterations" in run.error  # the ValueError message, serial path
    record = result.database.records()[0]
    assert record.feasible is False
    assert record.objective == float("-inf")  # uc6 maximises


def test_campaign_failed_runs_identical_across_executors():
    """Failure records must not depend on which executor ran the campaign."""
    serial = Campaign([_failing_scenario()], name="s").run(executor="serial")
    process = Campaign([_failing_scenario()], name="p").run(
        executor="process", max_workers=1
    )
    ser, pro = serial.database.records()[0], process.database.records()[0]
    assert ser.metrics == pro.metrics == {"error": 1.0}
    assert ser.objective == pro.objective
    assert ser.feasible == pro.feasible == False  # noqa: E712
    assert ser.tags == pro.tags
    # The worker ships the exception message back like the serial path.
    assert "n_iterations" in serial.runs[0].error
    assert process.runs[0].error == serial.runs[0].error


def test_campaign_aggregate_survives_a_failed_seed():
    """One crashed seed must not erase the succeeding seeds' statistics."""
    good = build_scenario("uc6", params=UC6_PARAMS, seeds=(1, 2), name="mixed")
    bad = build_scenario(
        "uc6", params={"n_nodes": 2, "n_iterations": 0}, seeds=(3,), name="mixed-bad"
    )
    # Same group label for both scenarios would need matching names; use the
    # use_case-only grouping to pool them.
    result = Campaign([good, bad]).run()
    assert [run.feasible for run in result.runs] == [True, True, False]
    agg = result.aggregate(group_keys=("use_case",))
    stats = agg["uc6"]["summary.mpi_heavy_wait_and_copy_saving"]
    assert stats["count"] == 2.0  # the failed seed is excluded, not poisoning


def test_campaign_best_is_none_when_all_runs_failed():
    result = Campaign([_failing_scenario()]).run()
    assert result.best("uc6") is None


def test_campaign_uncapped_trace_segment_runs_uc1_uc2():
    """'none' budget segments must run, not crash (uc1/uc2 regression)."""
    trace = BudgetTrace((0.0, 60.0), (260.0, None))
    campaign = Campaign(
        [
            build_scenario(
                "uc2",
                params={"n_nodes": 2, "n_iterations": 4, "include_policy_modes": False},
                seeds=(1,),
                budget_trace=trace,
            ),
        ]
    )
    result = campaign.run()
    assert [run.feasible for run in result.runs] == [True, True]
    assert result.runs[1].spec.params["per_node_budget_w"] is None


def test_campaign_aggregate_across_seeds():
    result = _toy_campaign("agg").run()
    agg = result.aggregate()
    assert set(agg) == {"uc6/uc6", "uc7/uc7"}
    stats = agg["uc6/uc6"]["summary.mpi_heavy_wait_and_copy_saving"]
    assert stats["count"] == 2.0
    assert stats["min"] <= stats["mean"] <= stats["max"]
    assert stats["std"] >= 0.0
    values = [
        r.metrics["summary.mpi_heavy_wait_and_copy_saving"]
        for r in result.runs
        if r.spec.use_case == "uc6"
    ]
    assert stats["mean"] == pytest.approx(np.mean(values))
    assert stats["std"] == pytest.approx(np.std(values))


def test_aggregate_across_seeds_direct():
    rows = [
        {"use_case": "a", "scenario": "s", "seed": 1, "metrics": {"m": 1.0, "extra": 9.0}},
        {"use_case": "a", "scenario": "s", "seed": 2, "metrics": {"m": 3.0}},
        {"use_case": "b", "scenario": "s", "seed": 1, "metrics": {"m": 5.0}},
    ]
    agg = aggregate_across_seeds(rows)
    assert agg["a/s"]["m"] == {
        "count": 2.0, "mean": 2.0, "std": 1.0, "min": 1.0, "max": 3.0,
    }
    # metrics not shared by every run in the group are dropped
    assert "extra" not in agg["a/s"]
    assert agg["b/s"]["m"]["count"] == 1.0


def test_campaign_summary_is_json_serialisable():
    result = _toy_campaign("json").run()
    text = json.dumps(result.summary())
    data = json.loads(text)
    assert data["n_runs"] == 4 and data["n_failed"] == 0
    assert data["use_cases"] == ["uc6", "uc7"]


# -- database helpers -------------------------------------------------------
def test_performance_database_merge_and_tag_values():
    a = PerformanceDatabase("a")
    b = PerformanceDatabase("b")
    a.add_evaluation({"x": 1}, {"m": 1.0}, objective=1.0, shard="a")
    b.add_evaluation({"x": 2}, {"m": 2.0}, objective=2.0, shard="b")
    a.merge(b)
    assert len(a) == 2 and len(b) == 1
    assert a.tag_values("shard") == ["a", "b"]
    assert a.best().objective == 1.0
    assert a.lookup(shard="b")[0].config == {"x": 2}


# -- Cluster.reset_nodes satellite ------------------------------------------
def test_reset_nodes_matches_scalar_reset_and_syncs_mask():
    cluster = Cluster(ClusterSpec(n_nodes=6), seed=3)
    reference = Cluster(ClusterSpec(n_nodes=6), seed=3)

    # Dirty both clusters identically: allocations, caps, clocks.
    for c in (cluster, reference):
        for i in (0, 1, 3):
            c.nodes[i].allocate(f"job-{i}")
        for node in c.nodes:
            node.set_power_cap(300.0)
            node.set_frequency(1.8)
            node.set_uncore_frequency(1.6)

    nodes = cluster.reset_nodes(np.arange(4), cap_w=250.0)
    for node in reference.nodes[:4]:  # the old _fresh_nodes idiom
        node.allocated_to = None
        node.set_power_cap(250.0)
        node.set_frequency(node.spec.cpu.freq_base_ghz)
        node.set_uncore_frequency(node.spec.cpu.uncore_max_ghz)

    assert [n.hostname for n in nodes] == [n.hostname for n in cluster.nodes[:4]]
    np.testing.assert_array_equal(cluster.state.node_free, reference.state.node_free)
    np.testing.assert_array_equal(
        cluster.state.node_power_cap_w, reference.state.node_power_cap_w
    )
    np.testing.assert_array_equal(
        cluster.state.pkg_power_cap_w, reference.state.pkg_power_cap_w
    )
    np.testing.assert_array_equal(
        cluster.state.pkg_freq_target_ghz, reference.state.pkg_freq_target_ghz
    )
    np.testing.assert_array_equal(
        cluster.state.pkg_uncore_ghz, reference.state.pkg_uncore_ghz
    )
    # The mask and the per-node attribute agree (the desync this API kills).
    for i, node in enumerate(cluster.nodes):
        assert cluster.state.node_free[i] == (node.allocated_to is None)
    # All allocated nodes (0, 1, 3) were inside the reset range, so the
    # whole cluster is free again.
    assert cluster.state.free_count == 6


def test_fresh_nodes_truncates_like_the_old_slice_idiom():
    """uc1's co-tuner proposes nodes=8 against 4-node test clusters; the
    historical ``cluster.nodes[:count]`` semantics must be preserved."""
    from repro.experiments import fresh_nodes

    cluster = Cluster(ClusterSpec(n_nodes=4), seed=1)
    nodes = fresh_nodes(cluster, 8, cap_w=280.0)
    assert [n.hostname for n in nodes] == [n.hostname for n in cluster.nodes[:4]]
    assert all(n.node_power_cap_w == 280.0 for n in nodes)


def test_register_use_case_without_docstring_or_description():
    from repro.experiments.registry import _REGISTRY, register_use_case

    try:
        @register_use_case("uc-temp-test", objective_metric="m")
        def runner(seed: int = 1, knob: int = 2):
            return {"m": float(knob)}

        assert _REGISTRY["uc-temp-test"].description == "uc-temp-test"
        assert _REGISTRY["uc-temp-test"].defaults == {"knob": 2}
    finally:
        _REGISTRY.pop("uc-temp-test", None)


def test_reset_nodes_defaults_uncapped_all_nodes():
    cluster = Cluster(ClusterSpec(n_nodes=3), seed=1)
    cluster.nodes[2].allocate("j")
    cluster.apply_uniform_power_cap(280.0)
    nodes = cluster.reset_nodes()
    assert len(nodes) == 3
    assert cluster.state.free_count == 3
    assert np.all(np.isnan(cluster.state.node_power_cap_w))


def test_apply_budget_trace_caps_whole_cluster():
    cluster = Cluster(ClusterSpec(n_nodes=4), seed=1)
    trace = BudgetTrace((0.0, 100.0), (250.0, None))
    applied = cluster.apply_budget_trace(trace, 10.0)
    assert np.all(applied == 250.0)
    assert all(node.node_power_cap_w == 250.0 for node in cluster.nodes)
    applied = cluster.apply_budget_trace(trace, 200.0)
    assert np.all(np.isnan(applied))
    assert all(node.node_power_cap_w is None for node in cluster.nodes)


# -- CLI --------------------------------------------------------------------
def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("uc1", "uc4", "uc7"):
        assert f"{name}:" in out


def test_cli_run_campaign_json(tmp_path, capsys):
    out_path = tmp_path / "campaign.json"
    code = cli_main(
        [
            "run",
            "--uc", "uc6,uc7",
            "--seed-list", "1,2",
            "--param", "n_iterations=6",
            "--param", "n_nodes=2",
            "--json", str(out_path),
            "--quiet",
        ]
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["n_runs"] == 4
    assert data["n_failed"] == 0
    assert data["use_cases"] == ["uc6", "uc7"]
    assert {run["seed"] for run in data["runs"]} == {1, 2}
    assert "uc6/uc6" in data["aggregates"]


def test_cli_targeted_param_and_unknown_uc(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["run", "--uc", "uc99"])
    # a typo'd global override must error, not silently run at defaults
    with pytest.raises(SystemExit):
        cli_main(["run", "--uc", "uc6", "--param", "n_iteration=5"])
    # so must an override targeting an unselected use case
    with pytest.raises(SystemExit):
        cli_main(["run", "--uc", "uc6", "--param", "uc3.max_evals=4"])
    # and a budget trace when no selected use case has a budget knob
    with pytest.raises(SystemExit):
        cli_main(["run", "--uc", "uc6", "--budget-trace", "0:280"])
    out_path = tmp_path / "one.json"
    code = cli_main(
        [
            "run",
            "--uc", "uc6",
            "--seed-list", "1",
            "--param", "uc6.n_iterations=5",
            "--param", "n_nodes=2",
            "--json", str(out_path),
            "--quiet",
        ]
    )
    assert code == 0
    assert json.loads(out_path.read_text())["n_runs"] == 1


def test_cli_budget_trace_axis(tmp_path):
    out_path = tmp_path / "trace.json"
    code = cli_main(
        [
            "run",
            "--uc", "uc3",
            "--seed-list", "1",
            "--param", "max_evals=4",
            "--param", "search=random",
            "--budget-trace", "0:260,600:none",
            "--json", str(out_path),
            "--quiet",
        ]
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["n_runs"] == 2  # one run per trace segment
    assert [run["segment"] for run in data["runs"]] == [0, 1]


def test_cli_out_dir_saves_one_shard_per_scenario(tmp_path):
    out_dir = tmp_path / "shards"
    code = cli_main(
        [
            "run",
            "--uc", "uc6,uc7",
            "--seed-list", "1,2",
            "--param", "n_iterations=6",
            "--param", "n_nodes=2",
            "--out-dir", str(out_dir),
            "--quiet",
        ]
    )
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["uc6.json", "uc7.json"]
    total = 0
    for name in ("uc6", "uc7"):
        shard = PerformanceDatabase.load(str(out_dir / f"{name}.json"), name)
        assert len(shard) == 2  # one record per seed
        assert shard.tag_values("scenario") == [name]
        assert shard.tag_values("seed") == ["1", "2"]
        total += len(shard)
        # The saved shard composes with the sharded multi-tenant store.
        sharded = ShardedPerformanceDatabase(n_shards=2)
        sharded.merge(shard, tenant="cli", session=name)
        assert sharded.aggregate() == shard.aggregate()
    assert total == 4
