"""Crash-safe durability layer: WAL, checkpoint/recover, resumable campaigns.

The acceptance contract (ISSUE tentpole): kill the process at *any*
byte of the journal and ``recover()`` returns a database bit-identical
to some completed-record prefix of the crashed writer; a campaign
resumed after a kill merges to the same records an uninterrupted pass
produces (wall-clock ``elapsed_s`` aside).
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.durability import (
    CampaignJournal,
    DatabaseJournal,
    JournalSegment,
    JournalTornWriteError,
    SnapshotCorruptError,
    attach,
    encode_entry,
    iter_entries,
    read_entries,
    recover,
)
from repro.durability.journal import MAX_ENTRY_BYTES
from repro.experiments import Campaign, build_scenario
from repro.faults import clear, get_profile, install
from repro.faults.conformance import (
    assert_durability_invariants,
    durability_invariants,
)
from repro.telemetry.database import EvaluationRecord
from repro.telemetry.sharding import ShardedPerformanceDatabase

#: Cheap parameters shared by the campaign-resume tests.
UC_PARAMS = {"n_nodes": 2, "n_iterations": 6}


def _record(i: int) -> EvaluationRecord:
    return EvaluationRecord(
        config={"x": i},
        metrics={"runtime_s": float(i) * 1.5},
        objective=float(i) * 1.5,
        elapsed_s=0.0,
        feasible=i % 3 != 0,
        tags={"tenant": f"t{i % 3}", "session": f"t{i % 3}-s0", "seed": "1"},
    )


def _dicts(db) -> list:
    return [r.to_dict() for r in db]


@pytest.fixture
def recover_closing():
    """``recover`` whose re-attached journals are closed when the test ends,
    so their segment files never outlive it."""
    recovered = []

    def run(directory, **kwargs):
        db = recover(directory, **kwargs)
        recovered.append(db)
        return db

    yield run
    for db in recovered:
        if db.journal is not None:
            db.journal.close()


def _populated_root(tmp_path, n=30, n_shards=3, checkpoint_at=None):
    """A durability root with ``n`` records; optional mid-way checkpoint."""
    root = str(tmp_path / "root")
    db = ShardedPerformanceDatabase(n_shards=n_shards, name="dur")
    journal = attach(db, root)
    for i in range(n):
        db.add(_record(i))
        if checkpoint_at is not None and i + 1 == checkpoint_at:
            db.checkpoint()
    journal.sync()
    return root, db, journal


# -- WAL segment substrate --------------------------------------------------
def test_entry_round_trip_and_checksum_discard(tmp_path):
    path = str(tmp_path / "seg.wal")
    seg = JournalSegment(path)
    payloads = [f"payload-{i}".encode() * (i + 1) for i in range(10)]
    for p in payloads:
        seg.append(p)
    seg.close()
    assert read_entries(path) == payloads
    # Flip one byte inside the third entry's payload: iteration stops
    # cleanly at the corruption, never raises.
    offset = sum(len(encode_entry(p)) for p in payloads[:2]) + 8 + 1
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    assert read_entries(path) == payloads[:2]


def test_entry_rejects_oversized_payload(tmp_path):
    with pytest.raises(ValueError):
        encode_entry(b"\0" * (MAX_ENTRY_BYTES + 1))


def test_iter_entries_missing_file_is_empty(tmp_path):
    assert list(iter_entries(str(tmp_path / "absent.wal"))) == []


def test_segment_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ValueError):
        JournalSegment(str(tmp_path / "x.wal"), fsync="eventually")


def test_torn_tail_at_every_byte_prefix(tmp_path):
    """The tentpole property: truncate the segment at EVERY byte length;
    the surviving entries are always exactly the fully-written prefix."""
    path = str(tmp_path / "seg.wal")
    seg = JournalSegment(path)
    payloads = [f"entry-{i}".encode() for i in range(6)]
    for p in payloads:
        seg.append(p)
    seg.close()
    with open(path, "rb") as fh:
        blob = fh.read()
    boundaries = [0]
    for p in payloads:
        boundaries.append(boundaries[-1] + len(encode_entry(p)))
    for cut in range(len(blob) + 1):
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        expected = sum(1 for b in boundaries[1:] if b <= cut)
        assert read_entries(path) == payloads[:expected], f"cut={cut}"


# -- checkpoint / recover ---------------------------------------------------
def test_recover_without_checkpoint_is_bit_identical(tmp_path, recover_closing):
    root, db, journal = _populated_root(tmp_path, n=25)
    journal.close()
    recovered = recover_closing(root)
    assert _dicts(recovered) == _dicts(db)
    assert recovered.shard_sizes() == db.shard_sizes()
    assert recovered.journal is not None and recovered.journal.enabled


def test_recover_snapshot_plus_journal_tail(tmp_path, recover_closing):
    root, db, journal = _populated_root(tmp_path, n=30, checkpoint_at=12)
    journal.close()
    recovered = recover_closing(root)
    assert _dicts(recovered) == _dicts(db)
    # The 12 checkpointed records came from the snapshot, not the WAL.
    assert sum(len(read_entries(os.path.join(root, "wal", f"shard-{s}.wal")))
               for s in range(3)) == 18


def test_checkpoint_truncates_and_bounds_generations(tmp_path, recover_closing):
    root, db, journal = _populated_root(tmp_path, n=10)
    for _ in range(4):
        db.add(_record(len(db)))
        summary = db.checkpoint()
    assert summary["generation"] == 4
    gens = sorted(os.listdir(os.path.join(root, "checkpoints")))
    assert gens == ["gen-000003", "gen-000004"]  # keep_generations=2
    assert journal.appended == 0
    journal.close()
    assert _dicts(recover_closing(root)) == _dicts(db)


def test_recovered_writes_continue_cleanly(tmp_path, recover_closing):
    """Appends after recovery must not collide with discarded ghosts."""
    root, db, journal = _populated_root(tmp_path, n=8)
    journal.close()
    recovered = recover_closing(root)
    for i in range(8, 14):
        recovered.add(_record(i))
    recovered.journal.close()
    final = recover_closing(root)
    assert _dicts(final) == _dicts(recovered)
    assert len(final) == 14


def test_attach_over_stale_root_drops_ghosts(tmp_path, recover_closing):
    root, db, journal = _populated_root(tmp_path, n=6)
    journal.close()
    fresh = ShardedPerformanceDatabase(n_shards=3, name="dur")
    attach(fresh, root)
    fresh.journal.close()
    assert _dicts(recover_closing(root)) == []


def test_attach_checkpoints_preexisting_records(tmp_path, recover_closing):
    root = str(tmp_path / "root")
    db = ShardedPerformanceDatabase(n_shards=2, name="dur")
    for i in range(5):
        db.add(_record(i))
    journal = attach(db, root)
    journal.close()
    assert _dicts(recover_closing(root)) == _dicts(db)


def test_whole_root_torn_at_every_prefix(tmp_path):
    """Cut one shard's WAL at every byte; recovery always yields an exact
    completed-record prefix interleaved with the other shards' survivors."""
    root, db, journal = _populated_root(tmp_path, n=18, checkpoint_at=6)
    journal.close()
    reference = _dicts(db)
    pristine = str(tmp_path / "pristine")
    shutil.copytree(root, pristine)
    victim = os.path.join(root, "wal", "shard-0.wal")
    with open(victim, "rb") as fh:
        blob = fh.read()
    seen_lengths = set()
    for cut in range(len(blob) + 1):
        shutil.rmtree(root)
        shutil.copytree(pristine, root)
        with open(victim, "wb") as fh:
            fh.write(blob[:cut])
        recovered = recover(root, reattach=False)
        got = _dicts(recovered)
        assert got == reference[: len(got)], f"cut={cut}"
        seen_lengths.add(len(got))
    # The cut actually moved the recovery point (not all-or-nothing).
    assert len(seen_lengths) > 2
    assert max(seen_lengths) == len(reference)


def test_generation_fallback_on_corrupt_snapshot(tmp_path):
    root, db, journal = _populated_root(tmp_path, n=10, checkpoint_at=5)
    db.checkpoint()  # gen-2 absorbs everything; WAL now empty
    journal.close()
    gen2 = os.path.join(root, "checkpoints", "gen-000002")
    for name in os.listdir(gen2):
        with open(os.path.join(gen2, name), "w") as fh:
            fh.write("{torn")
    recovered = recover(root, reattach=False)
    # Fell back to gen-1: the 5 records it captured — a consistent prefix.
    assert _dicts(recovered) == _dicts(db)[:5]


def test_all_generations_corrupt_raises(tmp_path):
    root, db, journal = _populated_root(tmp_path, n=6)
    db.checkpoint()
    journal.close()
    ckpt = os.path.join(root, "checkpoints")
    for gen in os.listdir(ckpt):
        for name in os.listdir(os.path.join(ckpt, gen)):
            with open(os.path.join(ckpt, gen, name), "w") as fh:
                fh.write("{torn")
    with pytest.raises(SnapshotCorruptError):
        recover(root)


def test_recover_rejects_non_root_and_corrupt_config(tmp_path):
    with pytest.raises(FileNotFoundError):
        recover(str(tmp_path / "nothing"))
    root = str(tmp_path / "bad")
    os.makedirs(root)
    with open(os.path.join(root, "JOURNAL.json"), "w") as fh:
        fh.write("{not json")
    with pytest.raises(SnapshotCorruptError):
        recover(root)


def test_journal_validation():
    with pytest.raises(ValueError):
        DatabaseJournal("/tmp/unused-validation", 2, fsync="never")
    with pytest.raises(ValueError):
        DatabaseJournal("/tmp/unused-validation", 2, keep_generations=0)


def test_shard_count_mismatch_rejected(tmp_path):
    db = ShardedPerformanceDatabase(n_shards=3, name="dur")
    journal = DatabaseJournal(str(tmp_path / "j"), 2)
    with pytest.raises(ValueError):
        db.attach_journal(journal)
    journal.close()


def test_durability_invariants_battery(tmp_path):
    root, db, journal = _populated_root(tmp_path, n=20, checkpoint_at=8)
    journal.close()
    reference = _dicts(db)
    assert_durability_invariants(root, reference=reference)
    # Tear the tail: the battery still holds (prefix_of_reference).
    victim = os.path.join(root, "wal", "shard-1.wal")
    size = os.path.getsize(victim)
    if size > 3:
        with open(victim, "r+b") as fh:
            fh.truncate(size - 3)
    checks = durability_invariants(root, reference=reference)
    assert all(checks.values()), checks


# -- storage chaos ----------------------------------------------------------
def test_storage_chaos_torn_writes_recoverable(tmp_path):
    """Under torn-write chaos some appends tear mid-entry; every crash
    point must leave the root recoverable to a reference prefix."""
    from repro.faults import FaultPlan, JournalTornWriteFault

    plan = FaultPlan(
        faults=(JournalTornWriteFault(probability=0.15, torn_fraction=0.5),),
        seed=7,
        name="torn-test",
    )
    # Reference pass: no chaos.
    ref_root = str(tmp_path / "ref")
    ref_db = ShardedPerformanceDatabase(n_shards=2, name="dur")
    ref_journal = attach(ref_db, ref_root)
    records = [_record(i) for i in range(40)]
    for r in records:
        ref_db.add(r)
    ref_journal.close()
    reference = _dicts(ref_db)

    root = str(tmp_path / "chaos")
    install(plan)
    torn = 0
    try:
        db = ShardedPerformanceDatabase(n_shards=2, name="dur")
        journal = attach(db, root)
        i = 0
        while i < len(records):
            try:
                db.add(records[i])
                i += 1
            except JournalTornWriteError:
                # A torn append is a simulated crash: recover, then retry
                # the record whose write-ahead entry tore (it never made
                # it into memory, so the replayed writer re-adds it).
                torn += 1
                journal.close()
                assert_durability_invariants(root, reference=reference)
                db = recover(root)
                journal = db.journal
                i = len(db)
        journal.close()
    finally:
        clear()
    assert torn > 0  # the profile actually bit
    final = _dicts(recover(root, reattach=False))
    assert final == reference[: len(final)]


def _runs_of_five(n: int) -> list:
    """``n`` records in runs of five, each run sharing one tags dict (a tell)."""
    records = []
    for start in range(0, n, 5):
        tenant = f"t{start // 5 % 3}"
        tags = {"tenant": tenant, "session": f"{tenant}-s0", "seed": "1"}
        records.extend(
            EvaluationRecord(config={"x": i}, metrics={"runtime_s": i * 1.5},
                             objective=i * 1.5, feasible=i % 3 != 0, tags=tags)
            for i in range(start, start + 5)
        )
    return records


def test_storage_chaos_torn_writes_inside_runs_recoverable(tmp_path):
    """Runs of five under torn-write chaos: a torn run applies none of its
    records, so memory equals what recovery reads back, and every crash
    point recovers a prefix."""
    from repro.faults import FaultPlan, JournalTornWriteFault

    plan = FaultPlan(
        faults=(JournalTornWriteFault(probability=0.15, torn_fraction=0.5),),
        seed=7,
        name="torn-test",
    )
    records = _runs_of_five(40)
    ref_db = ShardedPerformanceDatabase(n_shards=2, name="dur")
    ref_journal = attach(ref_db, str(tmp_path / "ref"))
    for start in range(0, len(records), 5):
        ref_db.add(*records[start:start + 5])
    ref_journal.close()
    reference = _dicts(ref_db)

    root = str(tmp_path / "chaos")
    install(plan)
    torn = 0
    try:
        db = ShardedPerformanceDatabase(n_shards=2, name="dur")
        journal = attach(db, root)
        i = 0
        while i < len(records):
            run = records[i:i + 5 - i % 5]  # the rest of the current run
            try:
                db.add(*run)
                i += len(run)
            except JournalTornWriteError:
                torn += 1
                assert len(db) == i  # a torn run applies none of its records
                assert _dicts(db) == reference[: len(db)]
                journal.close()
                assert_durability_invariants(root, reference=reference)
                recovered = recover(root)
                assert _dicts(recovered) == _dicts(db)  # memory == journal
                db, journal = recovered, recovered.journal
                i = len(db)
        journal.close()
    finally:
        clear()
    assert torn > 0  # the profile actually bit
    final = _dicts(recover(root, reattach=False))
    assert final == reference[: len(final)]


def test_add_returns_with_every_entry_readable(tmp_path):
    """Group commit: once add(*records) returns, a reader of the open
    journal's segments sees every entry of the call."""
    root = str(tmp_path / "root")
    db = ShardedPerformanceDatabase(n_shards=3, name="dur")
    journal = attach(db, root)
    records = _runs_of_five(10) + [_record(i) for i in range(10, 14)]
    db.add(*records[:5])
    db.add(*records[5:])
    entries = sorted(
        (json.loads(payload) for shard in range(3)
         for payload in read_entries(os.path.join(root, "wal", f"shard-{shard}.wal"))),
        key=lambda entry: entry["seq"],
    )
    seqs, bodies = [], []  # expanded to one sequence number per record
    for entry in entries:
        for offset, body in enumerate(entry["records"]):
            seqs.append(entry["seq"] + offset)
            bodies.append({"tags": entry.get("tags"), **body})
    assert seqs == list(range(len(records)))
    assert bodies == _dicts(db)
    journal.close()


def test_always_policy_fsyncs_once_per_segment_per_add(tmp_path, monkeypatch):
    """fsync="always" fsyncs each segment an add touches once, however
    many records its run holds."""
    db = ShardedPerformanceDatabase(n_shards=2, name="dur")
    journal = attach(db, str(tmp_path / "root"), fsync="always")
    first = {"tenant": "a", "session": "a-s0"}
    other = next(
        tags for tags in ({"tenant": f"b{i}", "session": "s"} for i in range(64))
        if db.shard_index(db.routing_key(tags)) != db.shard_index(db.routing_key(first))
    )
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)

    def run(tags, n):
        return [EvaluationRecord(config={"x": i}, metrics={}, objective=float(i), tags=tags)
                for i in range(n)]

    db.add(*run(first, 16))
    assert len(synced) == 1
    db.add(*run(first, 1))
    assert len(synced) == 2
    synced.clear()
    db.add(*run(first, 3), *run(other, 4))  # two runs, two segments
    assert len(synced) == 2 and len(set(synced)) == 2
    monkeypatch.undo()
    journal.close()
    assert len(recover(str(tmp_path / "root"), reattach=False)) == 24


def test_torn_append_keeps_later_appends_recoverable(tmp_path):
    """A writer that keeps going after torn appends: every acknowledged
    record is in memory and recovered (the next append truncates the torn
    bytes instead of writing behind them)."""
    from repro.faults import FaultPlan, JournalTornWriteFault

    root = str(tmp_path / "root")
    db = ShardedPerformanceDatabase(n_shards=1, name="dur")
    journal = attach(db, root)
    install(FaultPlan(faults=(JournalTornWriteFault(probability=0.2, torn_fraction=0.5),),
                      seed=3, name="torn-probe"))
    acknowledged, torn = [], 0
    try:
        for i in range(50):
            record = _record(i)
            try:
                db.add(record)
            except JournalTornWriteError:
                torn += 1
                continue
            acknowledged.append(record.to_dict())
    finally:
        clear()
    journal.close()
    assert torn > 0  # the plan bit
    assert _dicts(db) == acknowledged
    assert _dicts(recover(root, reattach=False)) == acknowledged


def test_self_referencing_record_raises_and_applies_nothing(tmp_path):
    """A record whose config contains itself cannot be encoded: its add
    raises, applies none of its run, and leaves no readable entry; the
    next add lands as if it had never been made."""
    root = str(tmp_path / "root")
    db = ShardedPerformanceDatabase(n_shards=1, name="dur")
    journal = attach(db, root)
    db.add(_record(0))
    looped = {"x": 1}
    looped["self"] = looped
    tags = {"tenant": "t1", "session": "t1-s0"}
    run = [EvaluationRecord(config={"x": 2}, metrics={}, objective=2.0, tags=tags),
           EvaluationRecord(config=looped, metrics={}, objective=1.0, tags=tags)]
    with pytest.raises((ValueError, RecursionError)):
        db.add(*run)
    assert len(db) == 1 and db.objectives_array().tolist() == [0.0]
    assert db.where(tenant="t1") == [] and db.best(feasible_only=False).objective == 0.0
    segment = os.path.join(root, "wal", "shard-0.wal")
    assert len(read_entries(segment)) == 1
    db.add(_record(1))
    journal.close()
    assert len(read_entries(segment)) == 2
    assert _dicts(recover(root, reattach=False)) == _dicts(db)


def test_recovered_entry_records_share_one_tags_dict(tmp_path):
    """One run is one entry; its recovered records share one tags dict, as
    the live records of a tell do, and equal them under ``to_dict``."""
    root = str(tmp_path / "root")
    db = ShardedPerformanceDatabase(n_shards=2, name="dur")
    journal = attach(db, root)
    records = _runs_of_five(10)
    db.add(*records[:5])
    db.add(*records[5:])
    journal.close()
    entries = [read_entries(os.path.join(root, "wal", f"shard-{shard}.wal")) for shard in range(2)]
    assert sum(map(len, entries)) == 2
    recovered = recover(root, reattach=False)
    assert _dicts(recovered) == _dicts(db)
    for run in (list(recovered)[:5], list(recovered)[5:]):
        assert all(record.tags is run[0].tags for record in run)
    assert list(recovered)[0].tags is not list(recovered)[5].tags


def test_recover_replays_per_record_entries_of_an_older_root(tmp_path):
    """A root written one entry per record (``"record"``, the format before
    entries held runs) replays each entry as a one-record run, and new
    run entries appended after recovery continue it."""
    root, db, journal = _populated_root(tmp_path, n=12, checkpoint_at=4)
    journal.close()
    for shard in range(db.n_shards):
        path = os.path.join(root, "wal", f"shard-{shard}.wal")
        with open(path, "wb") as fh:
            for seq in range(4, 12):
                record = list(db)[seq]
                key = db.routing_key(record.tags)
                if db.shard_index(key) == shard:
                    fh.write(encode_entry(json.dumps(
                        {"seq": seq, "shard": shard, "key": key, "record": record.to_dict()}
                    ).encode()))
    recovered = recover(root)
    assert _dicts(recovered) == _dicts(db)
    recovered.add(*_runs_of_five(20)[15:])
    recovered.journal.close()
    again = recover(root, reattach=False)
    assert len(again) == 17
    assert _dicts(again) == _dicts(recovered)


def test_recover_drops_checksummed_alien_entries(tmp_path):
    """Entries whose checksum holds but whose fields do not (a non-integer
    shard, no records, a non-list run, a non-object) are dropped, never
    raised; a gap they leave ends the replayed chain."""
    root, db, journal = _populated_root(tmp_path, n=6, n_shards=1)
    journal.close()
    path = os.path.join(root, "wal", "shard-0.wal")
    good = read_entries(path)
    alien = [{"seq": 6, "shard": "x", "key": "k", "record": _record(6).to_dict()},
             {"seq": 6, "key": "k", "records": []},
             {"seq": 6, "key": "k", "records": 5}, {"seq": 6, "key": "k"}, ["seq", 6], "seq"]
    with open(path, "ab") as fh:
        for entry in alien:
            fh.write(encode_entry(json.dumps(entry).encode()))
        fh.write(encode_entry(json.dumps(
            {"seq": 7, "shard": 0, "key": "k", "records": [_record(7).to_dict()]}).encode()))
    assert _dicts(recover(root, reattach=False)) == _dicts(db)
    assert read_entries(path) == good


def test_disk_stall_and_torn_write_decision_points():
    from repro.faults import DiskStallFault, FaultInjector, FaultPlan, JournalTornWriteFault

    plan = FaultPlan(
        faults=(
            DiskStallFault(probability=0.10, stall_s=0.002),
            JournalTornWriteFault(probability=0.05, torn_fraction=0.5),
        ),
        seed=3,
        name="storage-test",
    )
    inj = FaultInjector(plan)
    stalls = [inj.disk_stall("shard-0.wal") for _ in range(200)]
    fired = [s for s in stalls if s is not None]
    assert fired and all(s == pytest.approx(0.002) for s in fired)
    torn = [inj.journal_torn_write("shard-0.wal") for _ in range(200)]
    hits = [t for t in torn if t is not None]
    assert hits and all(t == pytest.approx(0.5) for t in hits)
    # Replayable: the same plan + entity reproduces the same decisions.
    again = FaultInjector(plan)
    assert [again.disk_stall("shard-0.wal") for _ in range(200)] == stalls
    assert [again.journal_torn_write("shard-0.wal") for _ in range(200)] == torn
    # Disabled plan never fires.
    off = FaultInjector(FaultPlan(faults=plan.faults, seed=3, enabled=False))
    assert off.disk_stall("shard-0.wal") is None
    assert off.journal_torn_write("shard-0.wal") is None


def test_storage_chaos_profile_registered_and_sliced():
    plan = get_profile("storage-chaos", seed=3)
    kinds = {spec.kind for spec in plan.faults}
    assert kinds == {"journal_torn_write", "disk_stall"}
    # node_fraction=0.5 concentrates chaos on a stable entity subset.
    from repro.faults import FaultInjector

    inj = FaultInjector(plan)
    eligible = [
        name for name in (f"seg-{i}.wal" for i in range(64))
        if inj._eligible("disk_stall", name)
    ]
    assert 0 < len(eligible) < 64
    assert eligible == [
        name for name in (f"seg-{i}.wal" for i in range(64))
        if FaultInjector(plan)._eligible("disk_stall", name)
    ]


# -- resumable campaigns ----------------------------------------------------
def _campaign():
    return Campaign(
        [
            build_scenario("uc6", params=UC_PARAMS, seeds=(1, 2)),
            build_scenario("uc7", params=UC_PARAMS, seeds=(1, 2)),
        ],
        name="resume-test",
    )


def _strip_elapsed(rows):
    return [
        {k: v for k, v in row.items() if k != "elapsed_s"}
        for row in rows
    ]


def test_campaign_budget_abort_and_resume_bit_identical(tmp_path):
    jdir = str(tmp_path / "journal")
    reference = _campaign().run()
    assert not reference.aborted

    partial = _campaign().run(journal_dir=jdir, run_budget=2)
    assert partial.aborted and len(partial.runs) == 2
    assert partial.summary()["aborted"] is True

    resumed = _campaign().run(journal_dir=jdir, resume=True)
    assert not resumed.aborted and len(resumed.runs) == 4
    assert _strip_elapsed([r.to_dict() for r in resumed.database]) == \
        _strip_elapsed([r.to_dict() for r in reference.database])
    assert [r.objective for r in resumed.runs] == [
        r.objective for r in reference.runs
    ]
    assert [r.metrics for r in resumed.runs] == [
        r.metrics for r in reference.runs
    ]

    # Idempotent: a second resume re-emits everything from the journal.
    again = _campaign().run(journal_dir=jdir, resume=True)
    assert [r.objective for r in again.runs] == [
        r.objective for r in reference.runs
    ]


def test_campaign_zero_budget_runs_nothing(tmp_path):
    jdir = str(tmp_path / "journal")
    result = _campaign().run(journal_dir=jdir, run_budget=0)
    assert result.aborted and result.runs == []
    assert len(result.database) == 0


@pytest.mark.parametrize(
    "executor, max_workers", [("bogus", None), ("thread", 0)],
    ids=["unknown-executor", "zero-workers"],
)
def test_rejected_campaign_run_writes_no_journal(tmp_path, executor, max_workers):
    """A run whose executor or pool size is rejected leaves no journal."""
    jdir = tmp_path / "journal"
    with pytest.raises(ValueError):
        _campaign().run(executor=executor, max_workers=max_workers, journal_dir=str(jdir))
    assert not (jdir / "campaign.wal").exists()


def test_campaign_resume_validates_identity(tmp_path):
    jdir = str(tmp_path / "journal")
    _campaign().run(journal_dir=jdir, run_budget=1)
    other = Campaign(
        [build_scenario("uc6", params=UC_PARAMS, seeds=(1,))], name="other"
    )
    with pytest.raises(ValueError, match="cannot resume"):
        other.run(journal_dir=jdir, resume=True)
    with pytest.raises(ValueError, match="resume"):
        _campaign().run(resume=True)  # resume needs a journal_dir


def test_campaign_journal_alien_entries_ignored(tmp_path):
    jdir = str(tmp_path / "journal")
    _campaign().run(journal_dir=jdir, run_budget=1)
    journal = CampaignJournal(jdir)
    journal.load()
    assert len(journal.completed) == 1
    # Hand-forge an entry for a key outside the grid: resume must not
    # let it shadow (or add) a real run.
    seg = JournalSegment(journal.path)
    seg.append(json.dumps({
        "kind": "run", "key": "uc9|nope|seed=1",
        "metrics": {}, "objective": 0.0, "feasible": True,
        "elapsed_s": 0.0, "error": None,
    }).encode())
    seg.close()
    resumed = _campaign().run(journal_dir=jdir, resume=True)
    assert len(resumed.runs) == 4
    assert all(r.spec.use_case in ("uc6", "uc7") for r in resumed.runs)


def test_campaign_journal_run_readable_before_close(tmp_path):
    """A recorded run is on disk at once: a kill after record_run keeps it."""
    journal = CampaignJournal(str(tmp_path / "journal"))
    journal.begin("smoke", total_runs=2)
    journal.record_run("uc6|s|seed=1", {"objective": 1.5, "error": None})
    entries = [json.loads(payload) for payload in read_entries(journal.path)]
    assert [entry["kind"] for entry in entries] == ["header", "run"]
    assert entries[1]["key"] == "uc6|s|seed=1" and entries[1]["objective"] == 1.5
    journal.close()


def test_campaign_resume_with_thread_executor(tmp_path):
    jdir = str(tmp_path / "journal")
    reference = _campaign().run()
    _campaign().run(journal_dir=jdir, run_budget=3, executor="thread",
                    max_workers=2)
    resumed = _campaign().run(journal_dir=jdir, resume=True,
                              executor="thread", max_workers=2)
    assert [r.objective for r in resumed.runs] == [
        r.objective for r in reference.runs
    ]


def test_campaign_sigkill_and_resume_bit_identical(tmp_path):
    """The integration kill test: SIGKILL a CLI campaign mid-flight, then
    resume; the merged database equals an uninterrupted run's."""
    jdir = str(tmp_path / "journal")
    out_ref = str(tmp_path / "ref.json")
    out_res = str(tmp_path / "resumed.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    base = [
        sys.executable, "-m", "repro.experiments", "run",
        "--uc", "uc6,uc7", "--seed-list", "1,2",
        "--param", "n_nodes=2", "--param", "n_iterations=6", "--quiet",
    ]
    subprocess.run(base + ["--json", out_ref], env=env, check=True, timeout=300)

    proc = subprocess.Popen(base + ["--journal-dir", jdir], env=env,
                            stdout=subprocess.DEVNULL)
    wal = os.path.join(jdir, "campaign.wal")
    deadline = time.monotonic() + 120
    journal = CampaignJournal(jdir)
    while time.monotonic() < deadline:
        if os.path.exists(wal) and len(journal.load()) >= 1:
            break
        if proc.poll() is not None:
            break  # finished before we could kill it — still a valid resume
        time.sleep(0.02)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=60)

    subprocess.run(
        base + ["--journal-dir", jdir, "--resume", "--json", out_res],
        env=env, check=True, timeout=300,
    )
    with open(out_ref) as fh:
        reference = json.load(fh)
    with open(out_res) as fh:
        resumed = json.load(fh)

    def strip(value):
        if isinstance(value, dict):
            return {
                k: strip(v) for k, v in value.items()
                if k not in ("elapsed_s", "aborted")
            }
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    # Objectives/metrics per use case are wall-clock-free: exact equality.
    assert json.dumps(strip(resumed), sort_keys=True) == \
        json.dumps(strip(reference), sort_keys=True)
