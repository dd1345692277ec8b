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

from repro.service import Request, ServiceClient, ServiceErrorCode
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
