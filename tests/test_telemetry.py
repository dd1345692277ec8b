"""Tests for metrics, counters, samplers and the performance database."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.counters import CounterSnapshot, TelemetryAccumulator
from repro.telemetry.database import EvaluationRecord, PerformanceDatabase
from repro.telemetry.metrics import (
    METRIC_REGISTRY,
    derived_metrics,
    energy_delay_product,
    energy_delay_squared_product,
)
from repro.telemetry.sampler import PowerTimeSeries, SlidingWindow


# -- metrics --------------------------------------------------------------------


def test_registry_contains_paper_metrics():
    expected = {"power_w", "energy_j", "runtime_s", "frequency_ghz", "flops", "ipc",
                "flops_per_watt", "ipc_per_watt", "edp", "ed2p", "flops_per_joule"}
    assert expected <= set(METRIC_REGISTRY)


def test_registry_directions():
    assert METRIC_REGISTRY["runtime_s"].minimize
    assert not METRIC_REGISTRY["flops_per_watt"].minimize


def test_edp_and_ed2p():
    assert energy_delay_product(100.0, 2.0) == pytest.approx(200.0)
    assert energy_delay_squared_product(100.0, 2.0) == pytest.approx(400.0)
    with pytest.raises(ValueError):
        energy_delay_product(-1.0, 2.0)


def test_derived_metrics_complete_set():
    measured = {"energy_j": 1000.0, "runtime_s": 10.0, "power_w": 100.0,
                "flops": 1e12, "ipc": 1.5, "frequency_ghz": 2.4}
    derived = derived_metrics(measured)
    assert derived["edp"] == pytest.approx(10_000.0)
    assert derived["flops_per_watt"] == pytest.approx(1e10)
    assert derived["ipc_per_watt"] == pytest.approx(0.015)
    assert derived["flops_per_joule"] == pytest.approx(1e12 * 10 / 1000)
    assert derived["ips"] == pytest.approx(1.5 * 2.4e9)


def test_derived_metrics_partial_inputs():
    assert "edp" not in derived_metrics({"energy_j": 10.0})
    assert derived_metrics({}) == {}


# -- counters --------------------------------------------------------------------


def test_counter_snapshot_delta():
    a = CounterSnapshot(0.0, 0.0, 0.0, 0.0, 0.0)
    b = CounterSnapshot(2.0, 400.0, 4.8e9, 2.4e9, 1e11)
    delta = a.delta(b)
    assert delta["power_w"] == pytest.approx(200.0)
    assert delta["ipc"] == pytest.approx(2.0)
    assert delta["flops"] == pytest.approx(5e10)
    with pytest.raises(ValueError):
        b.delta(a)


def test_accumulator_aggregates():
    acc = TelemetryAccumulator()
    acc.record_phase("solve", 2.0, 100.0, 1.0, 1e9, 2.0)
    acc.record_phase("solve", 2.0, 300.0, 2.0, 3e9, 3.0, power_capped=True)
    assert acc.runtime_s == pytest.approx(4.0)
    assert acc.energy_j == pytest.approx(800.0)
    assert acc.average_power_w == pytest.approx(200.0)
    assert acc.average_ipc == pytest.approx(1.5)
    assert acc.average_frequency_ghz == pytest.approx(2.5)
    assert acc.capped_seconds / acc.runtime_s == pytest.approx(0.5)
    assert acc.per_region["solve"]["count"] == 2.0


def test_accumulator_merge():
    a, b = TelemetryAccumulator(), TelemetryAccumulator()
    a.record_phase("x", 1.0, 100.0, 1.0, 1e9, 2.0)
    b.record_phase("x", 3.0, 100.0, 1.0, 1e9, 2.0)
    merged = a.merge(b)
    assert merged.runtime_s == pytest.approx(4.0)
    assert merged.per_region["x"]["count"] == 2.0


def test_accumulator_rejects_negative():
    with pytest.raises(ValueError):
        TelemetryAccumulator().record_phase("x", -1.0, 10.0, 1.0, 1.0, 1.0)


def test_accumulator_as_metrics_includes_derived():
    acc = TelemetryAccumulator()
    acc.record_phase("x", 2.0, 150.0, 1.2, 2e10, 2.4)
    metrics = acc.as_metrics()
    assert "edp" in metrics and "flops_per_watt" in metrics


# -- sliding window / power series ---------------------------------------------------


def test_sliding_window_average_and_eviction():
    window = SlidingWindow(10.0)
    window.add(0.0, 100.0)
    window.add(5.0, 200.0)
    assert 100.0 <= window.average() <= 200.0
    window.add(50.0, 300.0)
    assert window.average() == pytest.approx(300.0)
    assert len(window) == 1


def test_sliding_window_rejects_out_of_order():
    window = SlidingWindow(5.0)
    window.add(10.0, 1.0)
    with pytest.raises(ValueError):
        window.add(5.0, 2.0)


def test_power_series_mean_and_energy():
    series = PowerTimeSeries()
    series.extend([(0.0, 100.0), (10.0, 100.0), (20.0, 200.0)])
    assert series.mean_power_w() == pytest.approx(125.0)
    assert series.energy_j() == pytest.approx(2500.0)
    assert series.max_power_w() == pytest.approx(200.0)


def test_power_series_corridor_stats():
    series = PowerTimeSeries()
    for t in range(10):
        series.record(float(t), 100.0 if t < 5 else 300.0)
    stats = series.corridor_stats(upper_w=250.0, lower_w=50.0)
    assert stats.above_upper == 5
    assert stats.below_lower == 0
    assert stats.violation_fraction == pytest.approx(0.5)


def test_power_series_corridor_with_window_smoothing():
    series = PowerTimeSeries()
    for t in range(20):
        series.record(float(t), 400.0 if t == 10 else 100.0)
    raw = series.corridor_stats(upper_w=250.0)
    smoothed = series.corridor_stats(upper_w=250.0, window_s=10.0)
    assert raw.above_upper >= smoothed.above_upper


def test_power_series_validation():
    series = PowerTimeSeries()
    series.record(1.0, 10.0)
    with pytest.raises(ValueError):
        series.record(0.5, 10.0)
    with pytest.raises(ValueError):
        series.record(2.0, -5.0)


# -- performance database --------------------------------------------------------------


def test_database_best_and_topk():
    db = PerformanceDatabase()
    for i, value in enumerate([5.0, 2.0, 8.0, 1.0]):
        db.add_evaluation({"x": i}, {"runtime_s": value}, objective=value)
    assert db.best().config == {"x": 3}
    assert [r.objective for r in db.top_k(2)] == [1.0, 2.0]
    assert db.best(minimize=False).config == {"x": 2}


def test_database_best_prefers_feasible():
    db = PerformanceDatabase()
    db.add_evaluation({"x": 0}, {}, objective=1.0, feasible=False)
    db.add_evaluation({"x": 1}, {}, objective=5.0, feasible=True)
    assert db.best().config == {"x": 1}


def test_database_best_so_far_monotone():
    db = PerformanceDatabase()
    for value in [5.0, 7.0, 3.0, 4.0, 1.0]:
        db.add_evaluation({}, {}, objective=value)
    curve = db.best_so_far()
    assert curve == [5.0, 5.0, 3.0, 3.0, 1.0]


def test_database_lookup_by_tags():
    db = PerformanceDatabase()
    db.add_evaluation({"f": 1}, {}, objective=2.0, app="hypre")
    db.add_evaluation({"f": 2}, {}, objective=1.0, app="lulesh")
    assert db.best_for(app="hypre").config == {"f": 1}
    assert db.best_for(app="unknown") is None


def test_database_json_roundtrip(tmp_path):
    db = PerformanceDatabase("t")
    db.add_evaluation({"a": 1}, {"runtime_s": 2.0}, objective=2.0, tag="x")
    path = tmp_path / "db.json"
    db.save(str(path))
    loaded = PerformanceDatabase.load(str(path))
    assert len(loaded) == 1
    assert loaded.records()[0].config == {"a": 1}
    assert loaded.records()[0].tags == {"tag": "x"}


def test_database_filter():
    db = PerformanceDatabase()
    db.add_evaluation({}, {}, objective=1.0, feasible=True)
    db.add_evaluation({}, {}, objective=2.0, feasible=False)
    assert len(db.filter(lambda r: r.feasible)) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
def test_property_best_so_far_never_increases(objectives):
    db = PerformanceDatabase()
    for value in objectives:
        db.add_evaluation({}, {}, objective=value)
    curve = db.best_so_far()
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    assert curve[-1] == pytest.approx(min(objectives))


# -- columnar storage & vectorised queries -------------------------------------


def _seeded_db(n=50, seed=0):
    import numpy as np

    rng = np.random.default_rng(seed)
    db = PerformanceDatabase("columnar")
    for i in range(n):
        db.add_evaluation(
            {"i": i},
            {"runtime_s": float(i)},
            objective=float(rng.uniform(0.0, 100.0)),
            elapsed_s=float(i),
            feasible=bool(rng.random() < 0.8),
            app="a" if i % 2 == 0 else "b",
            phase=str(i % 3),
        )
    return db


def test_columnar_views_match_records():
    db = _seeded_db()
    assert db.objectives_array().tolist() == [r.objective for r in db]
    assert db.feasible_array().tolist() == [r.feasible for r in db]
    assert db.elapsed_array().tolist() == [r.elapsed_s for r in db]
    assert db.objectives() == [r.objective for r in db]


def test_best_so_far_matches_sequential_reference():
    db = _seeded_db(seed=3)

    def reference(minimize):
        curve, best = [], None
        for record in db:
            if not record.feasible:
                if best is not None:
                    curve.append(best)
                    continue
            value = record.objective
            if best is None:
                best = value
            else:
                best = min(best, value) if minimize else max(best, value)
            curve.append(best)
        return curve

    assert db.best_so_far(minimize=True) == reference(True)
    assert db.best_so_far(minimize=False) == reference(False)


def test_top_k_stable_ties():
    db = PerformanceDatabase()
    for i, value in enumerate([3.0, 1.0, 1.0, 2.0]):
        db.add_evaluation({"i": i}, {}, objective=value)
    top = db.top_k(3)
    assert [r.config["i"] for r in top] == [1, 2, 3]
    top_max = db.top_k(2, minimize=False)
    assert [r.config["i"] for r in top_max] == [0, 3]


def test_indexed_lookup_matches_scan():
    db = _seeded_db(seed=5)
    for app in ("a", "b"):
        for phase in ("0", "1", "2"):
            indexed = db.lookup(app=app, phase=phase)
            scanned = [
                r for r in db
                if r.tags.get("app") == app and r.tags.get("phase") == phase
            ]
            assert indexed == scanned
    assert db.lookup(app="missing") == []
    best = db.best_for(app="a")
    pool = db.lookup(app="a")
    assert best is min(pool, key=lambda r: r.objective)


def test_where_combines_columns_and_tags():
    db = _seeded_db(seed=7)
    rows = db.where(feasible=True, max_objective=50.0, app="a")
    expected = [
        r for r in db
        if r.feasible and r.objective <= 50.0 and r.tags.get("app") == "a"
    ]
    assert rows == expected


def test_aggregate_stats():
    import numpy as np

    db = _seeded_db(seed=9)
    stats = db.aggregate()
    objectives = [r.objective for r in db]
    assert stats["count"] == len(objectives)
    assert stats["min"] == pytest.approx(min(objectives))
    assert stats["mean"] == pytest.approx(np.mean(objectives))
    feasible = [r.objective for r in db if r.feasible]
    assert db.aggregate(feasible_only=True)["count"] == len(feasible)
    assert PerformanceDatabase().aggregate() == {"count": 0.0}


# -- rebuild / round-trip consistency (control-plane shard persistence) ---------


def _records_strategy():
    """Random evaluation records: finite/∞ objectives, tags, feasibility."""
    objective = st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.just(float("inf")),
        st.just(1.0),  # force ties
    )
    tags = st.dictionaries(
        st.sampled_from(["tenant", "seed", "use_case"]),
        st.sampled_from(["a", "b", "3"]),
        max_size=3,
    )
    record = st.builds(
        EvaluationRecord,
        config=st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 5), max_size=2),
        metrics=st.dictionaries(
            st.sampled_from(["runtime_s", "power_w"]),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            max_size=2,
        ),
        objective=objective,
        elapsed_s=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        feasible=st.booleans(),
        tags=tags,
    )
    return st.lists(record, max_size=25)


def _stats_equal(left_stats, right_stats):
    """Dict equality that treats NaN == NaN (std of a single ±inf is NaN)."""
    import math

    if set(left_stats) != set(right_stats):
        return False
    for key, value in left_stats.items():
        other = right_stats[key]
        if isinstance(value, float) and math.isnan(value):
            if not (isinstance(other, float) and math.isnan(other)):
                return False
        elif value != other:
            return False
    return True


def _assert_databases_identical(left: PerformanceDatabase, right: PerformanceDatabase):
    """Full observable equivalence: records, indexes, bests, aggregates."""
    assert [r.to_dict() for r in left] == [r.to_dict() for r in right]
    assert left._tag_index == right._tag_index
    for minimize in (True, False):
        for feasible_only in (True, False):
            lb = left.best(minimize=minimize, feasible_only=feasible_only)
            rb = right.best(minimize=minimize, feasible_only=feasible_only)
            assert (lb is None) == (rb is None)
            if lb is not None:
                assert lb.to_dict() == rb.to_dict()
        assert [r.to_dict() for r in left.top_k(5, minimize=minimize)] == [
            r.to_dict() for r in right.top_k(5, minimize=minimize)
        ]
        assert left.best_so_far(minimize=minimize) == right.best_so_far(minimize=minimize)
    assert _stats_equal(left.aggregate(), right.aggregate())
    assert _stats_equal(left.aggregate(feasible_only=True), right.aggregate(feasible_only=True))
    for key in ("tenant", "seed", "use_case"):
        assert left.tag_values(key) == right.tag_values(key)
        for value in left.tag_values(key):
            assert [r.to_dict() for r in left.lookup(**{key: value})] == [
                r.to_dict() for r in right.lookup(**{key: value})
            ]


@settings(max_examples=40, deadline=None)
@given(records=_records_strategy())
def test_property_json_round_trip_rebuilds_identically(records):
    db = PerformanceDatabase.from_records(records, "original")
    reloaded = PerformanceDatabase.from_json(db.to_json(), "original")
    _assert_databases_identical(db, reloaded)
    # A second round trip is the identity (normalisation is idempotent).
    assert reloaded.to_json() == PerformanceDatabase.from_json(reloaded.to_json()).to_json()


@settings(max_examples=40, deadline=None)
@given(records=_records_strategy())
def test_property_filter_and_merge_match_rebuild_from_records(records):
    db = PerformanceDatabase.from_records(records, "all")

    kept = db.filter(lambda r: r.feasible)
    rebuilt = PerformanceDatabase.from_records(
        [r for r in records if r.feasible], "all"
    )
    _assert_databases_identical(kept, rebuilt)

    half = len(records) // 2
    merged = PerformanceDatabase.from_records(records[:half], "m").merge(
        PerformanceDatabase.from_records(records[half:], "n")
    )
    _assert_databases_identical(merged, db)


def test_merge_with_self_duplicates_once():
    db = PerformanceDatabase("dup")
    db.add_evaluation({"x": 1}, {"m": 1.0}, objective=1.0, seed="1")
    db.add_evaluation({"x": 2}, {"m": 2.0}, objective=2.0, seed="2")
    db.merge(db)
    assert len(db) == 4
    assert [r.config["x"] for r in db] == [1, 2, 1, 2]
    assert db._tag_index[("seed", "1")] == [0, 2]


def test_to_dict_is_json_safe_for_numpy_scalars():
    import json

    import numpy as np

    record = EvaluationRecord(
        config={"x": 1},
        metrics={"m": np.float64(2.5), "flag": np.bool_(True)},
        objective=np.float64(3.0),
        elapsed_s=np.float64(0.5),
        feasible=np.bool_(True),
        tags={"seed": "1"},
    )
    text = json.dumps(record.to_dict())
    again = EvaluationRecord.from_dict(json.loads(text))
    assert again.objective == 3.0
    assert again.metrics == {"m": 2.5, "flag": 1.0}
    assert again.feasible is True
