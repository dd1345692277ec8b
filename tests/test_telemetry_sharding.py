"""Sharded performance database: fan-out/fan-in parity with a single DB.

The acceptance contract of the control-plane capture layer: a 4-shard
:class:`ShardedPerformanceDatabase` must answer ``best_for`` / ``top_k``
/ ``aggregate`` / ``where`` *bit-identically* to one merged
:class:`PerformanceDatabase` holding the same records in insertion
order — including stable tie-breaking.
"""

import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import attach, recover
from repro.sim.rng import stable_name_key
from repro.telemetry import PerformanceDatabase, ShardedPerformanceDatabase
from repro.telemetry.database import EvaluationRecord


def _populate(n_records=400, n_tenants=6, seed=0, n_shards=4):
    """The same random records into a single DB and a sharded DB."""
    rng = np.random.default_rng(seed)
    single = PerformanceDatabase("reference")
    sharded = ShardedPerformanceDatabase(n_shards=n_shards, name="sharded")
    for i in range(n_records):
        tenant = f"tenant{int(rng.integers(0, n_tenants))}"
        # Deliberate ties (1.0 / 2.0) so stable ordering is exercised.
        objective = float(rng.choice([1.0, 2.0, float(rng.normal())]))
        kwargs = dict(
            config={"x": i},
            metrics={"runtime_s": abs(objective)},
            objective=objective,
            elapsed_s=float(rng.random()),
            feasible=bool(rng.random() > 0.25),
            tenant=tenant,
            session=f"{tenant}-s{int(rng.integers(0, 3))}",
            seed=str(int(rng.integers(0, 4))),
        )
        single.add_evaluation(**kwargs)
        sharded.add_evaluation(**kwargs)
    return single, sharded


def _dicts(records):
    return [r.to_dict() for r in records]


def test_records_keep_global_insertion_order():
    single, sharded = _populate()
    assert len(sharded) == len(single)
    assert _dicts(sharded) == _dicts(single)
    assert _dicts(sharded.records(feasible_only=True)) == _dicts(
        single.records(feasible_only=True)
    )


def test_routing_is_deterministic_and_spreads_tenants():
    _, sharded = _populate()
    sizes = sharded.shard_sizes()
    assert sum(sizes) == len(sharded)
    assert sum(1 for s in sizes if s > 0) >= 2  # tenants spread over shards
    key = "tenant3/tenant3-s1"
    assert sharded.shard_index(key) == stable_name_key(key) % sharded.n_shards


def test_same_session_records_land_on_one_shard():
    sharded = ShardedPerformanceDatabase(n_shards=4)
    for i in range(10):
        sharded.add_evaluation(
            {"x": i}, {"m": 1.0}, objective=float(i), tenant="t", session="t-s1"
        )
    assert sorted(sharded.shard_sizes()) == [0, 0, 0, 10]


def test_best_for_parity_including_ties():
    single, sharded = _populate()
    for minimize in (True, False):
        assert sharded.best_for(minimize=minimize) == single.best_for(minimize=minimize)
        for tenant in single.tag_values("tenant"):
            assert sharded.best_for(minimize=minimize, tenant=tenant) == single.best_for(
                minimize=minimize, tenant=tenant
            )
        for seed in single.tag_values("seed"):
            assert sharded.best_for(
                minimize=minimize, tenant="tenant1", seed=seed
            ) == single.best_for(minimize=minimize, tenant="tenant1", seed=seed)
    assert sharded.best_for(tenant="nobody") is None
    assert single.best_for(tenant="nobody") is None


def test_top_k_parity_stable_ties():
    single, sharded = _populate()
    for minimize in (True, False):
        for k in (0, 1, 7, 50, 1000):
            assert _dicts(sharded.top_k(k, minimize=minimize)) == _dicts(
                single.top_k(k, minimize=minimize)
            )


@settings(max_examples=80, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.integers(0, 3),  # tenant
            st.integers(0, 2),  # session
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0)),
        ),
        max_size=60,
    ),
    n_shards=st.integers(1, 7),
    tags=st.fixed_dictionaries(
        {},
        optional={
            "tenant": st.sampled_from(["t0", "t1", "t2", "t3", "nobody"]),
            "session": st.sampled_from(["s0", "s1", "s2"]),
        },
    ),
    k=st.integers(0, 12),
    minimize=st.booleans(),
)
def test_filtered_top_k_equals_a_rebuild_over_where(records, n_shards, tags, k, minimize):
    """A tag-filtered fan-in top_k returns the very records, in the very
    order, of a flat database rebuilt from the matching records; ties
    (+0.0 and -0.0 among them) keep global insertion order."""
    sharded = ShardedPerformanceDatabase(n_shards=n_shards)
    for i, (tenant, session, objective) in enumerate(records):
        sharded.add_evaluation({"i": i}, {}, objective=objective,
                               tenant=f"t{tenant}", session=f"s{session}")
    expected = PerformanceDatabase.from_records(sharded.where(**tags)).top_k(
        k, minimize=minimize
    )
    got = sharded.top_k(k, minimize=minimize, **tags)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


def test_aggregate_parity_bit_identical():
    single, sharded = _populate()
    for feasible_only in (False, True):
        left = sharded.aggregate(feasible_only=feasible_only)
        right = single.aggregate(feasible_only=feasible_only)
        assert left == right  # exact float equality, not approx


def test_where_parity_and_order():
    single, sharded = _populate()
    cases = [
        dict(feasible=True),
        dict(feasible=False, tenant="tenant2"),
        dict(min_objective=0.0, max_objective=1.5),
        dict(feasible=True, min_objective=-1.0, tenant="tenant0", seed="2"),
        dict(tenant="nobody"),
    ]
    for case in cases:
        assert _dicts(sharded.where(**case)) == _dicts(single.where(**case))
    assert _dicts(sharded.lookup(tenant="tenant4")) == _dicts(single.lookup(tenant="tenant4"))
    assert sharded.tag_values("tenant") == single.tag_values("tenant")


def test_best_parity():
    single, sharded = _populate()
    for minimize in (True, False):
        for feasible_only in (True, False):
            assert sharded.best(
                minimize=minimize, feasible_only=feasible_only
            ) == single.best(minimize=minimize, feasible_only=feasible_only)


def test_columnar_views_are_globally_ordered():
    single, sharded = _populate(n_records=100)
    np.testing.assert_array_equal(sharded.objectives_array(), single.objectives_array())
    np.testing.assert_array_equal(sharded.feasible_array(), single.feasible_array())
    np.testing.assert_array_equal(sharded.elapsed_array(), single.elapsed_array())


def test_merged_equals_reference():
    single, sharded = _populate(n_records=60)
    merged = sharded.merged("flat")
    assert _dicts(merged) == _dicts(single)
    assert merged.aggregate() == single.aggregate()


def test_merge_flat_database_with_extra_tags():
    flat = PerformanceDatabase("capture")
    for i in range(8):
        flat.add_evaluation({"x": i}, {"m": 1.0}, objective=float(i), seed="1")
    sharded = ShardedPerformanceDatabase(n_shards=4)
    sharded.merge(flat, tenant="acme", session="acme-s1")
    assert len(sharded) == 8
    assert all(r.tags["tenant"] == "acme" for r in sharded)
    # All eight share the routing key, so they sit on one shard together.
    assert sorted(sharded.shard_sizes()) == [0, 0, 0, 8]
    assert len(flat) == 8  # source untouched


def test_save_load_round_trip(tmp_path):
    single, sharded = _populate(n_records=120)
    directory = str(tmp_path / "shards")
    sharded.save(directory)
    reloaded = ShardedPerformanceDatabase.load(directory)
    assert reloaded.n_shards == sharded.n_shards
    assert reloaded.shard_key_tags == sharded.shard_key_tags
    assert _dicts(reloaded) == _dicts(sharded)
    assert reloaded.aggregate() == sharded.aggregate()
    for minimize in (True, False):
        assert _dicts(reloaded.top_k(9, minimize=minimize)) == _dicts(
            sharded.top_k(9, minimize=minimize)
        )
    # New writes after a reload keep routing consistently.
    record = reloaded.add_evaluation(
        {"x": -1}, {"m": 0.0}, objective=-100.0, tenant="tenant0", session="tenant0-s0"
    )
    assert reloaded.best_for() == record


def test_single_shard_degenerates_to_flat_database():
    single = PerformanceDatabase("flat")
    sharded = ShardedPerformanceDatabase(n_shards=1)
    for i in range(20):
        kwargs = dict(
            config={"x": i}, metrics={}, objective=float((-1) ** i * i), tenant=f"t{i % 5}"
        )
        single.add_evaluation(**kwargs)
        sharded.add_evaluation(**kwargs)
    assert sharded.shard_sizes() == [20]
    assert _dicts(sharded.top_k(10)) == _dicts(single.top_k(10))
    assert sharded.aggregate() == single.aggregate()


def test_invalid_shard_count_rejected():
    with pytest.raises(ValueError):
        ShardedPerformanceDatabase(n_shards=0)


def test_explicit_shard_key_overrides_tag_routing():
    sharded = ShardedPerformanceDatabase(n_shards=4)
    record = EvaluationRecord(config={}, metrics={}, objective=1.0, tags={"tenant": "a"})
    explicit = sharded.add(record, shard_key="pinned")
    assert explicit == sharded.shard_index("pinned")


# -- best_for memoization (ROADMAP item 4) ---------------------------------
def _matches(record, feasible=None, min_objective=None, max_objective=None, **tags):
    """Brute-force ``where`` predicate: the oracle for the index paths."""
    return (
        (feasible is None or record.feasible == feasible)
        and (min_objective is None or record.objective >= min_objective)
        and (max_objective is None or record.objective <= max_objective)
        and all(k in record.tags and str(record.tags[k]) == str(v) for k, v in tags.items())
    )


def _shard_column(db):
    """Each record's shard, in global order (the live column)."""
    return db._shards[: len(db)]


def _assert_where_parity(single, sharded, tag_cases):
    """``where`` and ``where_indices`` equal the merged database (and a
    brute-force scan) for every feasible/min/max/tag combination."""
    for feasible in (None, True, False):
        for low in (None, -0.5):
            for high in (None, 1.0):
                for tags in tag_cases:
                    case = dict(feasible=feasible, min_objective=low, max_objective=high,
                                **tags)
                    expected = [i for i, r in enumerate(single) if _matches(r, **case)]
                    assert single.where_indices(**case).tolist() == expected
                    assert _dicts(sharded.where(**case)) == _dicts(single.where(**case))
                    assert sharded.where_indices(**case).tolist() == expected


_RECORD = st.tuples(
    st.integers(0, 299),  # tenant
    st.integers(0, 2),  # session
    st.integers(0, 3),  # integer-valued seed tag
    st.one_of(st.sampled_from([1.0, 2.0]), st.floats(-2.0, 2.0)),
    st.booleans(),
)


@settings(max_examples=15, deadline=None)
@given(
    records=st.lists(_RECORD, min_size=100, max_size=400),
    cache_max=st.sampled_from([3, 40, 4096]),
    query_every=st.integers(1, 9),
)
def test_best_for_cache_stays_correct_under_interleaved_adds(records, cache_max, query_every):
    """Query/add/query interleaving over hundreds of tenants and cached
    shapes (empty filter, one pair, several pairs, integer tag values
    queried as strings and as integers), with a cache small enough to
    reset: cached answers track every add, and ``where`` agrees too."""
    from repro.telemetry import sharding as sharding_module

    single = PerformanceDatabase("reference")
    sharded = ShardedPerformanceDatabase(n_shards=4)
    with mock.patch.object(sharding_module, "_BEST_CACHE_MAX", cache_max):
        for i, (tenant, session, seed, objective, feasible) in enumerate(records):
            kwargs = dict(config={"i": i}, metrics={}, objective=objective,
                          feasible=feasible, tenant=f"tenant{tenant}",
                          session=f"tenant{tenant}-s{session}", seed=seed)
            single.add_evaluation(**kwargs)
            sharded.add_evaluation(**kwargs)
            if i % query_every:
                continue
            shapes = [
                {},
                {"tenant": f"tenant{tenant}"},
                {"tenant": f"tenant{tenant}", "session": f"tenant{tenant}-s{session}"},
                {"seed": seed},
                {"seed": str(seed)},
                {"tenant": f"tenant{tenant}", "seed": seed, "session": "nobody"},
                {"tenant": f"tenant{(tenant + 1) % 300}"},
            ]
            for minimize in (True, False):
                for shape in shapes:
                    assert sharded.best_for(minimize=minimize, **shape) == single.best_for(
                        minimize=minimize, **shape
                    ), f"after {i + 1} records: {shape} minimize={minimize}"
        for tenant in single.tag_values("tenant"):
            assert sharded.best_for(tenant=tenant) == single.best_for(tenant=tenant)
    assert sharded._best_cache_shapes <= cache_max
    tag_cases = [{}, {"tenant": f"tenant{records[-1][0]}"}, {"seed": 1},
                 {"tenant": f"tenant{records[0][0]}", "seed": str(records[0][2])},
                 {"tenant": "nobody"}]
    _assert_where_parity(single, sharded, tag_cases)
    with tempfile.TemporaryDirectory() as directory:
        sharded.save(directory)
        reloaded = ShardedPerformanceDatabase.load(directory)
    np.testing.assert_array_equal(_shard_column(reloaded), _shard_column(sharded))
    for database in (single, reloaded):
        database.add_evaluation({"i": -1}, {}, objective=-5.0, tenant="tenant0",
                                session="tenant0-s0", seed=0)
    _assert_where_parity(single, reloaded, tag_cases)
    assert reloaded.best_for(seed=0) == single.best_for(seed=0)


def test_best_for_cached_none_upgrades_when_match_arrives():
    sharded = ShardedPerformanceDatabase(n_shards=4)
    sharded.add_evaluation({}, {}, objective=1.0, tenant="a")
    assert sharded.best_for(tenant="b") is None  # caches the None answer
    record = sharded.add_evaluation({}, {}, objective=5.0, tenant="b")
    assert sharded.best_for(tenant="b") == record


def test_best_for_cache_keeps_earlier_record_on_tie():
    sharded = ShardedPerformanceDatabase(n_shards=4)
    first = sharded.add_evaluation({"x": 0}, {}, objective=1.0, tenant="a")
    assert sharded.best_for(tenant="a") == first  # warm the cache
    sharded.add_evaluation({"x": 1}, {}, objective=1.0, tenant="a")
    assert sharded.best_for(tenant="a") == first  # tie resolves in global order


def test_best_for_cache_matches_where_indices_str_semantics():
    sharded = ShardedPerformanceDatabase(n_shards=4)
    assert sharded.best_for(seed="3") is None  # cache the miss
    record = sharded.add_evaluation({}, {}, objective=1.0, tenant="a", seed=3)
    assert sharded.best_for(seed="3") == record  # int tag vs str filter
    assert sharded.best_for(seed=3) == record  # int filter vs int tag


def test_best_for_cache_bounded():
    from repro.telemetry import sharding as sharding_module

    sharded = ShardedPerformanceDatabase(n_shards=2)
    record = sharded.add_evaluation({}, {}, objective=1.0, tenant="a")
    for i in range(sharding_module._BEST_CACHE_MAX + 10):
        sharded.best_for(probe=str(i))
    assert len(sharded._best_cache) <= sharding_module._BEST_CACHE_MAX
    assert sharded.best_for(tenant="a") == record  # still correct after reset


# -- run-wise adds (one tuning.tell = one add call) --------------------------
#: One add call: how its records hold their tags, an optional explicit
#: routing key, and (tenant, session, objective, feasible) per record.
_RUN = st.tuples(
    st.sampled_from(["shared", "equal", "differing"]),
    st.one_of(st.none(), st.sampled_from(["pin-a", "pin-b", "pin-c"])),
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 1),
            st.one_of(st.sampled_from([1.0, 2.0]), st.floats(-2.0, 2.0)),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ),
)

#: ``best_for`` shapes cached before any add, so every add must fold into them.
_CACHED_SHAPES = [
    (minimize, filters)
    for minimize in (True, False)
    for filters in ({}, {"tenant": "t0"}, {"tenant": "t1", "session": "t1-s1"},
                    {"session": "t2-s0"}, {"tuner": "u"})
]


def _run_records(kind, rows, offset):
    """A run's records: one shared tags dict, equal but distinct dicts,
    or each record's own tags."""
    tenant, session = rows[0][:2]
    shared = {"tenant": f"t{tenant}", "session": f"t{tenant}-s{session}", "tuner": "u"}
    records = []
    for i, (tenant, session, objective, feasible) in enumerate(rows):
        if kind == "shared":
            tags = shared
        elif kind == "equal":
            tags = dict(shared)
        else:
            tags = {"tenant": f"t{tenant}", "session": f"t{tenant}-s{session}"}
        records.append(EvaluationRecord(config={"i": offset + i}, metrics={"m": objective},
                                        objective=objective, feasible=feasible, tags=tags))
    return records


def _assert_same_columns(left, right):
    """Equal scalar columns and shard columns, record by record."""
    np.testing.assert_array_equal(left.objectives_array(), right.objectives_array())
    np.testing.assert_array_equal(left.feasible_array(), right.feasible_array())
    np.testing.assert_array_equal(left.elapsed_array(), right.elapsed_array())
    np.testing.assert_array_equal(_shard_column(left), _shard_column(right))


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@settings(max_examples=40, deadline=None)
@given(runs=st.lists(_RUN, max_size=10), n_shards=st.integers(1, 4))
def test_run_wise_add_equals_one_record_adds(runs, n_shards):
    """``add(*run)`` leaves exactly the state of one-record adds on a twin
    database, both journaled: records, shard columns, tag index, cached
    ``best_for`` answers (the very records, ties included), the queries,
    the saved snapshot, and what ``recover()`` reads back from each root."""
    with tempfile.TemporaryDirectory() as root:
        batched = ShardedPerformanceDatabase(n_shards=n_shards)
        single = ShardedPerformanceDatabase(n_shards=n_shards)
        journals = [attach(batched, os.path.join(root, "batched")),
                    attach(single, os.path.join(root, "single"))]
        assert batched.add() == -1 and len(batched) == 0
        for minimize, filters in _CACHED_SHAPES:
            assert batched.best_for(minimize, **filters) is None
            assert single.best_for(minimize, **filters) is None
        offset = 0
        for kind, shard_key, rows in runs:
            records = _run_records(kind, rows, offset)
            offset += len(records)
            route = {} if shard_key is None else {"shard_key": shard_key}
            shard = batched.add(*records, **route)
            assert shard == [single.add(record, **route) for record in records][-1]
        for journal in journals:
            journal.close()
        recovered = [recover(os.path.join(root, name), reattach=False)
                     for name in ("batched", "single")]
        assert _dicts(recovered[0]) == _dicts(recovered[1]) == _dicts(single)
        _assert_same_columns(*recovered)
        for minimize, filters in _CACHED_SHAPES:
            got, expected = (db.best_for(minimize, **filters) for db in recovered)
            assert (got is None) == (expected is None)
            assert got is None or got.to_dict() == expected.to_dict()
            assert _dicts(recovered[0].top_k(5, minimize, **filters)) == _dicts(
                recovered[1].top_k(5, minimize, **filters))
        for name, db in zip(("batched", "single"), recovered):
            db.save(os.path.join(root, f"snap-recovered-{name}"))
        assert _files(os.path.join(root, "snap-recovered-batched")) == _files(
            os.path.join(root, "snap-recovered-single"))

        assert _dicts(batched) == _dicts(single)
        _assert_same_columns(batched, single)
        assert batched._tag_index == single._tag_index
        for minimize in (True, False):
            for feasible_only in (True, False):
                assert batched.best(minimize, feasible_only) is single.best(
                    minimize, feasible_only)
        merged = single.merged()
        for minimize, filters in _CACHED_SHAPES:
            best = batched.best_for(minimize, **filters)
            assert best is single.best_for(minimize, **filters)
            assert best is merged.best_for(minimize, **filters)
            got, expected = (db.top_k(5, minimize, **filters) for db in (batched, single))
            assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected))
        for feasible in (None, True, False):
            for filters in ({}, {"tenant": "t1"}, {"tuner": "u"}):
                assert _dicts(batched.where(feasible, **filters)) == _dicts(
                    single.where(feasible, **filters))
        for feasible_only in (False, True):
            assert batched.aggregate(feasible_only) == single.aggregate(feasible_only)

        batched.save(os.path.join(root, "snap-batched"))
        single.save(os.path.join(root, "snap-single"))
        assert _files(os.path.join(root, "snap-batched")) == _files(
            os.path.join(root, "snap-single"))
        reloaded = ShardedPerformanceDatabase.load(os.path.join(root, "snap-batched"))
        assert _dicts(reloaded) == _dicts(single)
        np.testing.assert_array_equal(_shard_column(reloaded), _shard_column(single))


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(st.tuples(_RUN, st.sampled_from(["run", "mixed", "one-record"])), max_size=10),
    n_shards=st.integers(1, 4),
)
def test_recover_equals_the_live_database(runs, n_shards):
    """Each committed run is one journal entry: ``recover()`` rebuilds the
    live database (records, shard columns, global order, ``best_for``,
    ``top_k``, snapshot bytes) from runs whose records share one tags
    dict, hold equal but distinct dicts, differ, or mix shared and own
    tags, added as one run or one record at a time; the records of a
    recovered run share tags exactly where the live ones do."""
    with tempfile.TemporaryDirectory() as root:
        live = ShardedPerformanceDatabase(n_shards=n_shards)
        journal = attach(live, os.path.join(root, "journal"))
        offset, calls = 0, []
        for (kind, shard_key, rows), mode in runs:
            records = _run_records(kind, rows, offset)
            calls.append((offset, offset + len(records), mode))
            offset += len(records)
            if mode == "mixed":  # every other record holds its own equal tags
                records = [record if i % 2 else dataclasses.replace(record, tags=dict(record.tags))
                           for i, record in enumerate(records)]
            route = {} if shard_key is None else {"shard_key": shard_key}
            if mode == "one-record":
                for record in records:
                    live.add(record, **route)
            else:
                live.add(*records, **route)
        journal.close()
        recovered = recover(os.path.join(root, "journal"), reattach=False)
        assert _dicts(recovered) == _dicts(live)
        shared = [
            [listed[i].tags is listed[i + 1].tags
             for start, stop, mode in calls if mode != "one-record" for i in range(start, stop - 1)]
            for listed in (list(live), list(recovered))
        ]
        assert shared[0] == shared[1]  # within each add call
        _assert_same_columns(recovered, live)
        for minimize, filters in _CACHED_SHAPES:
            got, expected = (db.best_for(minimize, **filters) for db in (recovered, live))
            assert (got is None) == (expected is None)
            assert got is None or got.to_dict() == expected.to_dict()
            assert _dicts(recovered.top_k(5, minimize, **filters)) == _dicts(
                live.top_k(5, minimize, **filters))
        recovered.save(os.path.join(root, "snap-recovered"))
        live.save(os.path.join(root, "snap-live"))
        assert _files(os.path.join(root, "snap-recovered")) == _files(
            os.path.join(root, "snap-live"))
