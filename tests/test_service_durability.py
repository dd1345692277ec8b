"""Service-plane durability: db.checkpoint / db.recover, session snapshots.

The control-plane face of ``repro.durability``: operators checkpoint
and recover the sharded store through versioned commands (write-role
gated, corruption surfacing as the structured
``SVC_RET_SNAPSHOT_CORRUPT`` code, never an exception through the
facade), and sessions round-trip through ``session.snapshot`` /
``session.restore`` with their RNG derivation intact.
"""

import json
import os

import pytest

from repro.service import ServiceClient, ServiceErrorCode
from test_service_api import close_built_services, make_service  # noqa: F401  (autouse)


def _populate(client, session, n_evals=6):
    """Run a tiny tuning loop so the shared database holds records."""
    result = client.call(
        "tuning.run",
        session=session,
        parameters={"x": [0.0, 0.25, 0.5, 0.75, 1.0]},
        evaluator="quadratic",
        search="random",
        max_evals=n_evals,
        batch_size=3,
    )
    assert result.ok, result.error
    return result.result


def _corrupt_generations(root):
    ckpt = os.path.join(root, "checkpoints")
    for gen in os.listdir(ckpt):
        for name in os.listdir(os.path.join(ckpt, gen)):
            with open(os.path.join(ckpt, gen, name), "w") as fh:
                fh.write("{torn")


def test_checkpoint_recover_round_trip(tmp_path):
    root = str(tmp_path / "dur")
    client = ServiceClient(make_service())
    session = client.result("session.open", tenant="acme", role="administrator")[
        "session"
    ]
    first = client.call("db.checkpoint", session=session, directory=root)
    assert first.ok and first.result["generation"] == 1
    assert first.result["records"] == 0
    _populate(client, session)
    second = client.call("db.checkpoint", session=session)
    assert second.ok and second.result["generation"] == 2
    assert second.result["records"] == 6
    assert second.result["absorbed_entries"] == 6

    # A fresh service recovers the whole store from disk.
    other = ServiceClient(make_service())
    op = other.result("session.open", tenant="ops", role="resource_manager")[
        "session"
    ]
    recovered = other.call("db.recover", session=op, directory=root)
    assert recovered.ok, recovered.error
    assert recovered.result["n_records"] == 6
    assert recovered.result["journal_attached"] is True
    # Site-wide read (administrator) sees the recovered acme records;
    # the resource_manager's own tenant view stays empty.
    admin = other.result("session.open", tenant="site", role="administrator")[
        "session"
    ]
    assert other.result("db.stats", session=admin)["n_records"] == 6
    assert other.result("db.stats", session=op)["n_records"] == 0


def test_recover_replays_unchckpointed_tail(tmp_path):
    root = str(tmp_path / "dur")
    client = ServiceClient(make_service())
    session = client.result("session.open", tenant="acme", role="administrator")[
        "session"
    ]
    client.call("db.checkpoint", session=session, directory=root)
    _populate(client, session)  # journaled but never checkpointed
    other = ServiceClient(make_service())
    op = other.result("session.open", tenant="ops", role="administrator")["session"]
    recovered = other.call("db.recover", session=op, directory=root)
    assert recovered.ok and recovered.result["n_records"] == 6


def test_close_detaches_and_closes_the_journal(tmp_path):
    service = make_service()
    client = ServiceClient(service)
    session = client.result("session.open", tenant="acme", role="administrator")[
        "session"
    ]
    assert client.call("db.checkpoint", session=session, directory=str(tmp_path)).ok
    journal = service.database.journal
    service.close()
    assert service.database.journal is None
    assert all(segment.closed for segment in journal._segments)
    service.close()  # nothing left to close


def test_checkpoint_requires_operator_role(tmp_path):
    client = ServiceClient(make_service())
    session = client.result("session.open", tenant="acme", role="monitor")["session"]
    denied = client.call(
        "db.checkpoint", session=session, directory=str(tmp_path / "dur")
    )
    assert not denied.ok
    assert denied.error_code == ServiceErrorCode.NO_PERMISSION.value
    denied = client.call("db.recover", session=session, directory=str(tmp_path))
    assert not denied.ok
    assert denied.error_code == ServiceErrorCode.NO_PERMISSION.value


def test_checkpoint_argument_validation(tmp_path):
    root = str(tmp_path / "dur")
    client = ServiceClient(make_service())
    session = client.result("session.open", tenant="acme", role="administrator")[
        "session"
    ]
    # First checkpoint needs a directory.
    missing = client.call("db.checkpoint", session=session)
    assert not missing.ok
    assert missing.error_code == ServiceErrorCode.BAD_REQUEST.value
    assert client.call("db.checkpoint", session=session, directory=root).ok
    # Attached elsewhere: a different directory is rejected.
    moved = client.call(
        "db.checkpoint", session=session, directory=str(tmp_path / "elsewhere")
    )
    assert not moved.ok
    assert moved.error_code == ServiceErrorCode.BAD_VALUE.value
    bad_keep = client.call("db.checkpoint", session=session, keep_generations=0)
    assert not bad_keep.ok
    assert bad_keep.error_code == ServiceErrorCode.BAD_VALUE.value


@pytest.mark.parametrize("keep", [0, -1])
def test_rejected_checkpoint_attaches_and_writes_nothing(tmp_path, keep):
    """``keep_generations`` below 1 is rejected before a journal is
    attached: no journal, and nothing written under the directory."""
    service = make_service(n_nodes=2)
    wire = _wire_client(service)
    root = tmp_path / "root"
    root.mkdir()
    operator = wire("session.open", tenant="ops", role="administrator")["result"]["session"]
    runtime = wire("session.open", tenant="rt", role="runtime")["result"]["session"]
    tuner = wire("tuning.open", runtime, parameters={"x": [1, 2]}, search="random",
                 seed=1)["result"]["tuner_id"]
    told = wire("tuning.tell", runtime, tuner_id=tuner, results=[{"config": {"x": 1},
                                                                "objective": 1.0}])
    assert told["ok"] and len(service.database) == 1
    rejected = wire("db.checkpoint", operator, directory=str(root), keep_generations=keep)
    assert rejected["error"]["code"] == ServiceErrorCode.BAD_VALUE.value
    assert service.database.journal is None
    assert os.listdir(root) == []


def test_recover_missing_root_is_no_object(tmp_path):
    client = ServiceClient(make_service())
    session = client.result("session.open", tenant="acme", role="administrator")[
        "session"
    ]
    missing = client.call(
        "db.recover", session=session, directory=str(tmp_path / "nothing")
    )
    assert not missing.ok
    assert missing.error_code == ServiceErrorCode.NO_OBJECT.value


def test_corrupt_snapshot_maps_to_structured_code(tmp_path):
    root = str(tmp_path / "dur")
    client = ServiceClient(make_service())
    session = client.result("session.open", tenant="acme", role="administrator")[
        "session"
    ]
    client.call("db.checkpoint", session=session, directory=root)
    _populate(client, session)
    client.call("db.checkpoint", session=session)
    _corrupt_generations(root)
    bad = client.call("db.recover", session=session, directory=root)
    assert not bad.ok
    assert bad.error_code == "SVC_RET_SNAPSHOT_CORRUPT"
    assert bad.error_code == ServiceErrorCode.SNAPSHOT_CORRUPT.value
    # The facade returned an envelope, not an exception, and the old
    # database is untouched.
    assert client.result("db.stats", session=session)["n_records"] == 6


def test_session_snapshot_restore_preserves_rng_derivation(tmp_path):
    service = make_service()
    client = ServiceClient(service)
    opened = client.result(
        "session.open", tenant="acme", role="administrator", quota=50
    )
    session = opened["session"]
    _populate(client, session)
    snap = client.result("session.snapshot", session=session)
    assert snap["state"]["session"] == session
    assert snap["state"]["used_evaluations"] == 6
    assert snap["state"]["quota"] == 50
    assert snap["open_tuners"] == []

    # Restoring over a live session is rejected.
    live = client.call("session.restore", state=snap["state"])
    assert not live.ok and live.error_code == ServiceErrorCode.BAD_REQUEST.value

    client.result("session.close", session=session)
    restored = client.result("session.restore", state=snap["state"])
    assert restored["session"] == session
    assert restored["rng_seed"] == opened["rng_seed"]
    assert restored["used_evaluations"] == 6
    # Quota accounting survives: 44 evaluations left, the 45th is over.
    over = client.call(
        "tuning.run",
        session=session,
        parameters={"x": [0.0, 1.0]},
        evaluator="quadratic",
        search="random",
        max_evals=45,
        batch_size=5,
    )
    assert not over.ok
    assert over.error_code == ServiceErrorCode.QUOTA_EXCEEDED.value

    # New sessions never collide with the restored id.
    fresh = client.result("session.open", tenant="acme", role="monitor")
    assert fresh["session"] != session


def test_session_restore_validation(tmp_path):
    client = ServiceClient(make_service())
    partial = client.call("session.restore", state={"session": "s1", "tenant": "t"})
    assert not partial.ok
    assert partial.error_code == ServiceErrorCode.BAD_REQUEST.value
    bad_role = client.call(
        "session.restore",
        state={"session": "s1", "tenant": "t", "role": "archmage", "ordinal": 1},
    )
    assert not bad_role.ok
    assert bad_role.error_code == ServiceErrorCode.BAD_REQUEST.value
    bad_ordinal = client.call(
        "session.restore",
        state={"session": "s1", "tenant": "t", "role": "monitor", "ordinal": 0},
    )
    assert not bad_ordinal.ok
    assert bad_ordinal.error_code == ServiceErrorCode.BAD_VALUE.value
    bad_scope = client.call(
        "session.restore",
        state={
            "session": "s1",
            "tenant": "t",
            "role": "monitor",
            "ordinal": 1,
            "scope_hostnames": ["ghost-node"],
        },
    )
    assert not bad_scope.ok
    assert bad_scope.error_code == ServiceErrorCode.NO_OBJECT.value


def test_session_snapshot_is_wire_safe(tmp_path):
    """The snapshot blob survives a JSON round trip and restores from it."""
    client = ServiceClient(make_service())
    opened = client.result("session.open", tenant="acme", role="runtime")
    session = opened["session"]
    snap = client.result("session.snapshot", session=session)
    blob = json.loads(json.dumps(snap, sort_keys=True))
    client.result("session.close", session=session)
    restored = client.result("session.restore", state=blob["state"])
    assert restored["rng_seed"] == opened["rng_seed"]
    assert restored["role"] == "runtime"


def test_snapshot_names_open_tuners(tmp_path):
    client = ServiceClient(make_service())
    session = client.result("session.open", tenant="acme", role="administrator")[
        "session"
    ]
    tuner = client.result(
        "tuning.open",
        session=session,
        parameters={"x": [0.0, 0.5, 1.0]},
    )["tuner_id"]
    snap = client.result("session.snapshot", session=session)
    assert snap["open_tuners"] == [tuner]


def test_durability_commands_in_catalogue():
    client = ServiceClient(make_service())
    described = client.result("service.describe")
    ops = {entry["op"] for entry in described["commands"]}
    assert {
        "db.checkpoint",
        "db.recover",
        "session.snapshot",
        "session.restore",
    } <= ops


# -- tuning.tell through a journaled store --------------------------------
def _wire_client(service):
    def wire(op, session=None, **args):
        envelope = {"op": op, "args": args}
        if session is not None:
            envelope["session"] = session
        return json.loads(service.handle_wire(json.dumps(envelope)))

    return wire


def _journaled_tuner(tmp_path, n_shards=1, quota=None):
    """A journaled service, its operator session, and one runtime tuner."""
    service = make_service(n_nodes=2, n_shards=n_shards)
    wire = _wire_client(service)
    root = str(tmp_path / "journal")
    operator = wire("session.open", tenant="ops", role="resource_manager")["result"]["session"]
    assert wire("db.checkpoint", operator, directory=root)["ok"]
    runtime = wire("session.open", tenant="rt", role="runtime", quota=quota)["result"]["session"]
    tuner = wire("tuning.open", runtime, parameters={"x": list(range(64))},
                 search="random")["result"]["tuner_id"]
    return service, wire, root, operator, runtime, tuner


def _results(first, n):
    return [{"config": {"x": (first + i) % 64}, "objective": float(first + i)} for i in range(n)]


def test_sixteen_result_tell_appends_one_entry(tmp_path):
    from repro.durability import read_entries, recover

    service, wire, root, _, runtime, tuner = _journaled_tuner(tmp_path, n_shards=4)
    assert wire("tuning.tell", runtime, tuner_id=tuner, results=_results(0, 16))["ok"]
    entries = [entry for shard in range(4)
               for entry in read_entries(os.path.join(root, "wal", f"shard-{shard}.wal"))]
    assert len(entries) == 1
    entry = json.loads(entries[0])
    assert entry["seq"] == 0 and len(entry["records"]) == 16
    assert entry["tags"] == {"tenant": "rt", "session": runtime, "tuner": tuner}
    assert service.database.journal.appended == 16
    service.close()
    recovered = list(recover(root, reattach=False))
    assert [r.to_dict() for r in recovered] == [r.to_dict() for r in service.database]
    assert all(record.tags is recovered[0].tags for record in recovered)


def test_tells_under_storage_chaos_lose_no_acknowledged_record(tmp_path):
    """40 tells of 4 under ``chaos.inject storage-chaos``: the records of
    every acknowledged tell, and only those, are in memory and recovered,
    and the quota spent equals what the tuner was told."""
    from repro.durability import recover

    service, wire, root, operator, runtime, tuner = _journaled_tuner(tmp_path)
    assert wire("chaos.inject", operator, profile="storage-chaos", seed=3)["ok"]
    acknowledged = []
    for tell in range(40):
        results = _results(4 * tell, 4)
        response = wire("tuning.tell", runtime, tuner_id=tuner, results=results)
        if response["ok"]:
            acknowledged.extend((r["config"], r["objective"]) for r in results)
        else:
            assert response["error"]["code"] == "SVC_RET_INTERNAL", response
    assert wire("chaos.clear", operator)["ok"]
    used = wire("session.info", runtime)["result"]["used_evaluations"]
    told = wire("tuning.close", runtime, tuner_id=tuner)["result"]["told_total"]
    in_memory = [(r.config, r.objective) for r in service.database]
    service.close()
    recovered = [(r.config, r.objective) for r in recover(root, reattach=False)]
    assert in_memory == acknowledged
    assert recovered == acknowledged
    assert used == told == len(acknowledged)


def test_torn_tell_changes_no_quota_store_or_tuner_state(tmp_path):
    """A tell whose journal write tears answers an error and leaves the
    quota, ``told_total``, the best, the store and the journal as they
    were; the next tell goes through."""
    from repro.durability import recover
    from repro.faults import FaultPlan, JournalTornWriteFault, clear, install

    service, wire, root, _, runtime, tuner = _journaled_tuner(tmp_path, quota=20)
    first = wire("tuning.tell", runtime, tuner_id=tuner, results=_results(10, 4))
    assert first["ok"]

    def state():
        return (
            wire("session.info", runtime)["result"]["used_evaluations"],
            wire("tuning.best", runtime, tuner_id=tuner)["result"]["best"],
            [r.to_dict() for r in service.database],
            service.database.journal.appended,
        )

    before = state()
    install(FaultPlan(faults=(JournalTornWriteFault(probability=1.0, torn_fraction=0.5),),
                      seed=1, name="tear-every-write"))
    try:
        torn = wire("tuning.tell", runtime, tuner_id=tuner, results=_results(0, 4))
    finally:
        clear()
    assert not torn["ok"] and torn["error"]["code"] == "SVC_RET_INTERNAL"
    assert "torn journal write" in torn["error"]["message"]
    assert state() == before == (4, first["result"]["best"], before[2], 4)
    after = wire("tuning.tell", runtime, tuner_id=tuner, results=_results(0, 4))
    assert after["ok"] and after["result"]["told_total"] == 8
    assert after["result"]["quota_remaining"] == 12
    service.close()
    assert [r.to_dict() for r in recover(root, reattach=False)] == [
        r.to_dict() for r in service.database]


# -- the bytes of one journaled episode ------------------------------------
#: sha256 of what one journaled episode leaves: its response lines (the
#: root path masked), every file of its durability root (WAL segments,
#: checkpoint generations, ``CHECKPOINT`` and ``JOURNAL.json``) and a
#: ``db.save`` snapshot taken at its end.  Client-chosen configs and
#: objectives and explicit tuner seeds, no ``tuning.ask``: no search draw
#: enters the bytes.
_EPISODE_DIGESTS = {
    "responses": "7df6b77098690d8e2d4ffd0746ae3fb0aa6a192b28f4b5cf560a3a71398d4e57",
    "root": {
        "CHECKPOINT": "76a809d3ce9636de10d1beb70694fd0d7c79cdd94ec16cfd011f42e1561a6c20",
        "JOURNAL.json": "476bee950afb23ce77f5a4e2e47408cb8fde1280e5f9d912903c3aaef44a592d",
        "checkpoints/gen-000001/manifest.json":
            "7d240b43322a4ed15618edcc8e3a4c6c6395266e6f0dfa8af76941465d3c019b",
        "checkpoints/gen-000001/shard-0.json":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "checkpoints/gen-000001/shard-1.json":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "checkpoints/gen-000001/shard-2.json":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "checkpoints/gen-000001/shard-3.json":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "checkpoints/gen-000002/manifest.json":
            "1bf4fbbaaa473f06a875e51a48fddf64342a21495d7d3b51d9b86f7555d31980",
        "checkpoints/gen-000002/shard-0.json":
            "43ffaf4559e9e437aad83e693a55530aee1bcb4235ebe974efc30b0797db5d0d",
        "checkpoints/gen-000002/shard-1.json":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "checkpoints/gen-000002/shard-2.json":
            "780251554d4e0600f91392d329a557493fc8b1f286c01ad7489a4286739b8363",
        "checkpoints/gen-000002/shard-3.json":
            "20284370e995df5627a78eccb5f94373e0832f96d2a5a5f284fe53997eebde86",
        "wal/shard-0.wal": "c91a3fb46bfba7948955f9896838604bf13c622efb626b9bfcc6b58dbe84d722",
        "wal/shard-1.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "wal/shard-2.wal": "58ee4b5b5b0a22410a2cf0c95892af7b97032a5c57cf0365cfcf7598dcaa6bbe",
        "wal/shard-3.wal": "3fb4113e44d9c9a6a2be8fe9428bce81c6f8f01989b4dd544b03e2454a9ce278",
    },
    "snapshot": {
        "manifest.json": "e3b27a089d6aea68deb06df53c19fe00dfdf7f87fc6f1bb1c68a169bdeb63ee8",
        "shard-0.json": "61a39ab62d3896f32251df2ff454ecddaf942ce92ce7b4880eb38f621ef9e825",
        "shard-1.json": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "shard-2.json": "655a07505d649ccb88a58e8373c116288c9f4bf5573062be75cdb4ceaa8a2281",
        "shard-3.json": "a3399aa1eee68ddab5d47734967b73c69aac2e944d9320941524546924ef7645",
    },
}


def _sha256_tree(directory):
    import hashlib

    digests = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def _journaled_episode(tmp_path):
    """Three tenants tell 30 batches of 16 into a journaled 4-shard store,
    with tenant and administrator reads between the tells and one
    ``db.checkpoint`` midway; returns the masked response lines."""
    import hashlib

    root = str(tmp_path / "root")
    service = make_service(n_nodes=2, n_shards=4)
    lines = []

    def wire(op, session=None, **args):
        envelope = {"op": op, "args": args}
        if session is not None:
            envelope["session"] = session
        line = service.handle_wire(json.dumps(envelope))
        lines.append(line.replace(root, "<root>"))
        return json.loads(line)

    admin = wire("session.open", tenant="site", role="administrator")["result"]["session"]
    assert wire("db.checkpoint", admin, directory=root)["ok"]
    tuners = []
    for index, tenant in enumerate(("acme", "beta", "gamma")):  # shards 3, 2 and 0
        session = wire("session.open", tenant=tenant, role="runtime")["result"]["session"]
        opened = wire("tuning.open", session, parameters={"x": list(range(16)), "y": ["lo", "hi"]},
                      search="random", seed=100 + index, minimize=index != 1)
        tuners.append((session, opened["result"]["tuner_id"]))
    reads = [
        ("db.best_for", {}), ("db.top_k", {"k": 5}), ("db.aggregate", {"feasible_only": True}),
        ("db.where", {"min_objective": 4.0, "max_objective": 4.5}), ("db.stats", {}),
        ("db.best_for", {"minimize": False, "tags": {"tenant": "beta"}}),
        ("db.top_k", {"k": 3, "minimize": False}), ("db.aggregate", {}),
        ("db.where", {"feasible": False, "tags": {"tenant": "gamma"}}),
    ]
    for tell in range(30):
        session, tuner = tuners[tell % 3]
        results = [
            {"config": {"x": (5 * tell + i) % 16, "y": "hi" if (tell + i) % 3 else "lo"},
             "objective": ((37 * tell + 11 * i) % 23) / 4.0,
             "feasible": (tell + i) % 5 != 0,
             "metrics": {"runtime_s": ((tell + i) % 7) / 2.0}}
            for i in range(16)
        ]
        assert wire("tuning.tell", session, tuner_id=tuner, results=results)["ok"]
        for reader in (session, admin):
            op, args = reads[(tell + (reader == admin)) % len(reads)]
            assert wire(op, reader, **args)["ok"]
        if tell == 14:
            assert wire("db.checkpoint", admin)["ok"]
    for session, tuner in tuners:
        assert wire("tuning.best", session, tuner_id=tuner)["ok"]
    snapshot = str(tmp_path / "snapshot")
    service.database.save(snapshot)
    service.close()
    return {
        "responses": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
        "root": _sha256_tree(root),
        "snapshot": _sha256_tree(snapshot),
    }


def test_journaled_episode_bytes_are_pinned(tmp_path):
    """The wire answers, the durability root and the saved snapshot of one
    journaled episode keep their bytes."""
    assert _journaled_episode(tmp_path) == _EPISODE_DIGESTS
