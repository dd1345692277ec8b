"""Control-plane service API: envelopes, sessions, roles, every command.

Three pillars:

* **wire safety** — every command exercised here round-trips through
  JSON envelopes (dict → wire → dict equality asserted on both the
  request and the response), and failures are structured error
  responses, never exceptions through the facade;
* **permission parity** — an exhaustive role × attribute × object-type
  grid asserts the service rejects exactly what ``PowerApiContext``
  rejects, with the same error code;
* **stack coverage** — one scripted session drives every registered
  command at least once.
"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import Cluster, ClusterSpec
from repro.hardware.node import NodeSpec
from repro.powerapi.context import PowerApiContext, PowerApiError
from repro.powerapi.objects import AttrName, ObjType
from repro.powerapi.roles import Role
from repro.service import (
    PROTOCOL_VERSION,
    Request,
    Response,
    ServiceCallError,
    ServiceClient,
    ServiceErrorCode,
    StackService,
)
from repro.service.__main__ import main as service_main
from repro.service.__main__ import run_stream
from repro.telemetry import ShardedPerformanceDatabase


#: Services built by the running test, closed when it ends.
_BUILT = []


def make_service(n_nodes=4, seed=1, n_shards=4, **kwargs) -> StackService:
    service = StackService(n_nodes=n_nodes, seed=seed, n_shards=n_shards, **kwargs)
    _BUILT.append(service)
    return service


@pytest.fixture(autouse=True)
def close_built_services():
    """Close every service the test built (a db.checkpoint journal stays open otherwise)."""
    yield
    while _BUILT:
        _BUILT.pop().close()


def rt(client: ServiceClient, op: str, session=None, **args) -> Response:
    """Call asserting the envelope round trips: dict → wire → dict."""
    request = Request(op=op, args=args, session=session, request_id="rt")
    assert Request.from_json(request.to_json()).to_dict() == request.to_dict()
    response = client.call(op, session=session, **args)
    assert Response.from_json(response.to_json()).to_dict() == response.to_dict()
    return response


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------
def test_request_envelope_round_trip():
    request = Request(
        op="power.set_caps",
        args={"indices": [0, 1], "watts": 250.0},
        session="s0001-acme",
        request_id="abc",
    )
    wire = request.to_json()
    again = Request.from_json(wire)
    assert again == request
    assert again.to_dict() == request.to_dict()


def test_response_envelope_round_trip_success_and_failure():
    ok = Response.success({"value": 1.5}, request=Request(op="x", request_id="7"))
    assert Response.from_json(ok.to_json()).to_dict() == ok.to_dict()
    # to_dict() is the pre-encode form; the encoder is the one normaliser,
    # so numpy values and tuples arrive as plain JSON.
    arrays = Response.success(
        {"caps": np.array([250.0, 260.0]), "n": np.int64(3), "on": np.bool_(True),
         "f": np.float32(0.5), "pair": (1, 2)},
        request=Request(op="x", request_id="8"),
    )
    again = Response.from_json(arrays.to_json())
    assert again.to_dict() == json.loads(arrays.to_json())
    assert again.result == {"caps": [250.0, 260.0], "n": 3, "on": True, "f": 0.5, "pair": [1, 2]}
    bad = Response.failure(ServiceErrorCode.NO_PERMISSION, "nope")
    again = Response.from_json(bad.to_json())
    assert again.to_dict() == bad.to_dict()
    assert again.error_code == "PWR_RET_NO_PERM"


def test_malformed_envelopes_become_structured_errors():
    service = make_service()
    for payload in ("not json", '{"args": {}}', '{"op": "x", "bogus_field": 1}'):
        response = Response.from_json(service.handle_wire(payload))
        assert not response.ok
        assert response.error_code == ServiceErrorCode.BAD_REQUEST.value


def test_protocol_major_mismatch_rejected_minor_accepted():
    service = make_service()
    old = service.handle(Request(op="service.ping", protocol="2.0"))
    assert not old.ok
    assert old.error_code == ServiceErrorCode.UNSUPPORTED_PROTOCOL.value
    minor = service.handle(Request(op="service.ping", protocol="1.9"))
    assert minor.ok


def test_error_codes_mirror_powerapi_values():
    from repro.powerapi.context import ErrorCode

    for code in ErrorCode:
        assert ServiceErrorCode(code.value).value == code.value


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------
def test_commands_require_session_and_unknown_session_rejected():
    service = make_service()
    client = ServiceClient(service)
    no_session = rt(client, "power.snapshot")
    assert no_session.error_code == ServiceErrorCode.NO_SESSION.value
    ghost = rt(client, "power.snapshot", session="s9999-ghost")
    assert ghost.error_code == ServiceErrorCode.NO_SESSION.value


def test_closed_session_is_rejected():
    client = ServiceClient(make_service())
    handle = client.open_session("acme")
    handle.close()
    response = handle.call("session.info")
    assert response.error_code == ServiceErrorCode.NO_SESSION.value


def test_unknown_role_rejected():
    client = ServiceClient(make_service())
    response = rt(client, "session.open", tenant="acme", role="root")
    assert response.error_code == ServiceErrorCode.BAD_REQUEST.value


def test_unknown_command_and_unknown_argument():
    client = ServiceClient(make_service())
    assert rt(client, "no.such.op").error_code == ServiceErrorCode.UNKNOWN_COMMAND.value
    response = rt(client, "service.ping", bogus=1)
    assert response.error_code == ServiceErrorCode.BAD_REQUEST.value


def test_tenant_rng_streams_are_deterministic_and_isolated():
    # Same tenant, same per-tenant session ordinal => same stream seed,
    # regardless of what other tenants did first.
    service_a = make_service(seed=5)
    client_a = ServiceClient(service_a)
    client_a.open_session("other")  # unrelated tenant opens first
    acme_a = client_a.open_session("acme", role="runtime")

    service_b = make_service(seed=5)
    acme_b = ServiceClient(service_b).open_session("acme", role="runtime")

    assert acme_a.info["rng_seed"] == acme_b.info["rng_seed"]

    space = {"x": [0, 1, 2, 3, 4], "y": [0.1, 0.2, 0.4]}
    tuner_a = acme_a.result("tuning.open", parameters=space, search="random")
    tuner_b = acme_b.result("tuning.open", parameters=space, search="random")
    assert tuner_a["seed"] == tuner_b["seed"]
    ask_a = acme_a.result("tuning.ask", tuner_id=tuner_a["tuner_id"], n=6)
    ask_b = acme_b.result("tuning.ask", tuner_id=tuner_b["tuner_id"], n=6)
    assert ask_a["configs"] == ask_b["configs"]


# ---------------------------------------------------------------------------
# permission parity grid (the powerapi.roles matrix through the facade)
# ---------------------------------------------------------------------------
_WRITE_VALUES = {
    AttrName.POWER_LIMIT_MAX: 250.0,
    AttrName.FREQ_REQUEST: 2.0,
    AttrName.UNCORE_FREQ: 1.8,
    AttrName.GOV: 1.0,
}


def _grid_objects(context: PowerApiContext):
    objects = [context.root]
    for obj_type in (ObjType.NODE, ObjType.SOCKET, ObjType.ACCELERATOR):
        found = context.objects_of_type(obj_type)
        if found:
            objects.append(found[0])
    return objects


def test_role_grid_read_parity_with_context():
    """service power.read fails exactly when PowerApiContext.read raises,
    with the same error code, for every role × attribute × object type."""
    cluster = Cluster(ClusterSpec(n_nodes=2, node=NodeSpec(n_gpus=1)), seed=3)
    service = make_service(cluster=cluster)
    client = ServiceClient(service)
    reference = PowerApiContext.for_cluster(cluster)
    checked = 0
    for role in Role:
        handle = client.open_session(f"grid-{role.value}", role=role.value)
        context = reference.with_role(role)
        for obj in _grid_objects(context):
            for attr in AttrName:
                expected_code = None
                expected_value = None
                try:
                    expected_value = context.read(obj, attr)
                except PowerApiError as error:
                    expected_code = error.code.value
                response = handle.call("power.read", path=obj.path, attr=attr.value)
                if expected_code is None:
                    assert response.ok, (role, obj.path, attr, response.error)
                    assert response.result["value"] == pytest.approx(expected_value)
                else:
                    assert not response.ok, (role, obj.path, attr)
                    assert response.error["code"] == expected_code
                checked += 1
    assert checked == len(Role) * 4 * len(AttrName)


def test_role_grid_write_parity_with_context():
    """Write grid: same rejects, same codes (NO_PERM before NOT_IMPLEMENTED,
    exactly like the context's check order)."""
    cluster = Cluster(ClusterSpec(n_nodes=2, node=NodeSpec(n_gpus=1)), seed=3)
    service = make_service(cluster=cluster)
    client = ServiceClient(service)
    reference = PowerApiContext.for_cluster(cluster)
    for role in Role:
        handle = client.open_session(f"gridw-{role.value}", role=role.value)
        context = reference.with_role(role)
        for obj in _grid_objects(context):
            for attr in AttrName:
                value = _WRITE_VALUES.get(attr, 1.0)
                expected_code = None
                try:
                    context.write(obj, attr, value)
                except PowerApiError as error:
                    expected_code = error.code.value
                response = handle.call(
                    "power.write", path=obj.path, attr=attr.value, value=value
                )
                if expected_code is None:
                    assert response.ok, (role, obj.path, attr, response.error)
                else:
                    assert not response.ok, (role, obj.path, attr)
                    assert response.error["code"] == expected_code


def test_role_denied_commands_never_raise():
    client = ServiceClient(make_service())
    app = client.open_session("app-tenant", role="application")
    for op, args in [
        ("power.write", dict(path="sim-cluster", attr="power_limit_max", value=100.0)),
        ("power.set_caps", dict(indices=[0], watts=100.0)),
        ("power.set_frequencies", dict(indices=[0], ghz=2.0)),
        ("jobs.run", dict()),
        ("jobs.advance", dict(duration_s=1.0)),
    ]:
        response = app.call(op, **args)
        assert not response.ok
        assert response.error["code"] == ServiceErrorCode.NO_PERMISSION.value


def test_read_only_roles_cannot_mutate_any_plane():
    client = ServiceClient(make_service())
    for role in ("monitor", "application"):
        session = client.open_session(f"ro-{role}", role=role)
        for op, args in [
            ("jobs.submit", dict(app="stream", nodes=1)),
            ("tuning.open", dict(parameters={"x": [1, 2]})),
            ("tuning.run", dict(parameters={"x": [1, 2]}, evaluator="quadratic")),
            ("campaign.run", dict(scenarios=[{"use_case": "uc6"}])),
        ]:
            response = session.call(op, **args)
            assert response.error["code"] == ServiceErrorCode.NO_PERMISSION.value, (
                role,
                op,
            )


def test_tuning_run_refunds_unspent_quota():
    client = ServiceClient(make_service())
    session = client.open_session("budget", role="runtime", quota=10)
    # Grid search over 2 values exhausts after 2 evaluations; the other
    # 8 reserved slots must be refunded.
    run = session.result(
        "tuning.run",
        parameters={"x": [0, 1]},
        evaluator="quadratic",
        search="grid",
        max_evals=10,
        batch_size=4,
    )
    assert run["evaluations"] == 2
    assert session.result("session.info")["used_evaluations"] == 2


def test_batch_commands_reject_boolean_values_and_empty_targets():
    client = ServiceClient(make_service())
    rm = client.open_session("acme", role="resource_manager")
    for call in (
        rm.call("power.set_caps", indices=[0], watts=True),
        rm.call("power.set_caps", indices=[0, 1], watts=[250.0, True]),
        rm.call("power.set_frequencies", indices=[0], ghz=True),
        rm.call("power.set_caps", hostnames=[], watts=250.0),
        rm.call("power.set_caps", indices=[], watts=250.0),
    ):
        assert call.error["code"] == ServiceErrorCode.BAD_REQUEST.value


def test_negative_write_same_code_through_both_paths():
    service = make_service()
    client = ServiceClient(service)
    rm = client.open_session("acme", role="resource_manager")
    node = service.cluster.nodes[0].hostname
    single = rm.call(
        "power.write", path=f"sim-cluster/{node}", attr="power_limit_max", value=-5.0
    )
    batch = rm.call("power.set_caps", indices=[0], watts=-5.0)
    assert single.error["code"] == batch.error["code"] == ServiceErrorCode.BAD_VALUE.value


# ---------------------------------------------------------------------------
# batch power commands ride the vectorised kernels
# ---------------------------------------------------------------------------
def test_batch_set_caps_applies_vectorised_and_uncaps():
    service = make_service(n_nodes=4)
    client = ServiceClient(service)
    rm = client.open_session("acme", role="resource_manager")
    out = rm.result("power.set_caps", indices=[0, 2], watts=[300.0, None])
    hostnames = [n.hostname for n in service.cluster.nodes]
    assert out["applied"][hostnames[0]] == 300.0
    assert out["applied"][hostnames[2]] is None
    state_caps = service.cluster.state.node_power_cap_w
    assert state_caps[0] == 300.0
    assert math.isnan(state_caps[2])
    assert math.isnan(state_caps[1])  # untouched nodes keep their cap

    by_name = rm.result("power.set_caps", hostnames=[hostnames[1]], watts=280.0)
    assert by_name["applied"][hostnames[1]] == 280.0
    assert state_caps[1] == 280.0

    uncapped = rm.result("power.set_caps", indices=[0], watts=None)
    assert uncapped["applied"][hostnames[0]] is None
    assert math.isnan(state_caps[0])


def test_batch_set_caps_bad_targets():
    client = ServiceClient(make_service(n_nodes=2))
    rm = client.open_session("acme", role="resource_manager")
    assert (
        rm.call("power.set_caps", indices=[5], watts=100.0).error["code"]
        == ServiceErrorCode.NO_OBJECT.value
    )
    assert (
        rm.call("power.set_caps", hostnames=["nope"], watts=100.0).error["code"]
        == ServiceErrorCode.NO_OBJECT.value
    )
    assert (
        rm.call("power.set_caps", watts=100.0).error["code"]
        == ServiceErrorCode.BAD_REQUEST.value
    )
    assert (
        rm.call("power.set_caps", indices=[0], hostnames=["x"], watts=1.0).error["code"]
        == ServiceErrorCode.BAD_REQUEST.value
    )
    assert (
        rm.call("power.set_caps", indices=[0, 1], watts=[100.0]).error["code"]
        == ServiceErrorCode.BAD_REQUEST.value
    )


def test_scoped_session_batch_writes_respect_scope():
    service = make_service(n_nodes=4)
    client = ServiceClient(service)
    hostnames = [n.hostname for n in service.cluster.nodes]
    scoped = client.open_session(
        "jobrt", role="runtime", scope_hostnames=hostnames[:2]
    )
    inside = scoped.result("power.set_caps", indices=[0, 1], watts=260.0)
    assert len(inside["applied"]) == 2
    outside = scoped.call("power.set_caps", indices=[1, 3], watts=260.0)
    assert outside.error["code"] == ServiceErrorCode.OUT_OF_SCOPE.value
    # same code as a single out-of-scope context write
    single = scoped.call(
        "power.write",
        path=f"sim-cluster/{hostnames[3]}",
        attr="power_limit_max",
        value=260.0,
    )
    assert single.error["code"] == ServiceErrorCode.OUT_OF_SCOPE.value


def test_batch_set_frequencies():
    service = make_service(n_nodes=3)
    client = ServiceClient(service)
    rm = client.open_session("acme", role="resource_manager")
    out = rm.result("power.set_frequencies", indices=[0, 1, 2], ghz=2.0)
    assert len(out["granted"]) == 3
    for granted in out["granted"].values():
        assert 0.0 < granted <= 2.0  # clamped + P-state floored
    assert np.all(service.cluster.state.pkg_freq_target_ghz[:3] <= 2.0)


# ---------------------------------------------------------------------------
# one scripted session covers every registered command
# ---------------------------------------------------------------------------
def run_every_command(service: StackService, call) -> set:
    """Drive one scripted session through every registered command.

    ``call(op, session=None, **args)`` sends one command and returns its
    result.  Returns the ops ``service.describe`` lists.
    """
    call("service.ping", payload={"n": 1})
    described = call("service.describe")
    all_ops = {spec["op"] for spec in described["commands"]}

    opened = call(
        "session.open", tenant="acme", role="resource_manager", quota=500
    )
    sid = opened["session"]
    call("session.info", session=sid)

    node = service.cluster.nodes[0].hostname
    call("power.read", session=sid, path=f"sim-cluster/{node}", attr="power")
    call(
        "power.write",
        session=sid,
        path=f"sim-cluster/{node}",
        attr="power_limit_max",
        value=320.0,
    )
    call("power.read_group", session=sid, obj_type="node", attr="tdp")
    call("power.snapshot", session=sid)
    call("power.set_caps", session=sid, indices=[0, 1], watts=300.0)
    call("power.set_frequencies", session=sid, indices=[0, 1], ghz=2.2)

    job = call(
        "jobs.submit",
        session=sid,
        app={"kind": "stream", "n_iterations": 4},
        nodes=2,
        walltime_s=120.0,
    )
    call("jobs.query", session=sid, job_id=job["job_id"])
    call("jobs.list", session=sid)
    call("runtime.report", session=sid, job_id=job["job_id"])
    call("runtime.request_power", session=sid, job_id=job["job_id"], watts=50.0)
    call("runtime.return_power", session=sid, job_id=job["job_id"], watts=10.0)
    call("jobs.advance", session=sid, duration_s=0.05)
    call("jobs.run", session=sid)
    second = call(
        "jobs.submit", session=sid, app="dgemm", nodes=1, walltime_s=600.0
    )
    call("jobs.cancel", session=sid, job_id=second["job_id"])
    call("jobs.stats", session=sid)

    tuner = call(
        "tuning.open",
        session=sid,
        parameters={"x": [0, 1, 2, 3], "y": [0.5, 1.0]},
        search="random",
        batch_size=4,
    )
    asked = call("tuning.ask", session=sid, tuner_id=tuner["tuner_id"])
    call(
        "tuning.tell",
        session=sid,
        tuner_id=tuner["tuner_id"],
        results=[
            {"config": config, "objective": config["x"] + config["y"]}
            for config in asked["configs"]
        ],
    )
    call("tuning.best", session=sid, tuner_id=tuner["tuner_id"])
    call("tuning.close", session=sid, tuner_id=tuner["tuner_id"])
    call(
        "tuning.run",
        session=sid,
        parameters={"a": [0.0, 0.5, 1.0, 2.0]},
        evaluator="quadratic",
        search="random",
        max_evals=8,
        batch_size=4,
    )
    call(
        "campaign.run",
        session=sid,
        scenarios=[
            {
                "use_case": "uc6",
                "params": {"n_iterations": 6, "n_nodes": 2},
                "seeds": [1],
            }
        ],
    )

    call("db.best_for", session=sid, tags={})
    call("db.top_k", session=sid, k=3)
    call("db.aggregate", session=sid)
    call("db.where", session=sid, tags={"tenant": "acme"}, feasible=True)
    call("db.stats", session=sid)

    call("chaos.inject", session=sid, profile="bmc-chaos", seed=3)
    call("chaos.status", session=sid)
    call("chaos.clear", session=sid)

    with tempfile.TemporaryDirectory() as root:
        call("db.checkpoint", session=sid, directory=root)
        call("db.recover", session=sid, directory=root)
    snapshot = call("session.snapshot", session=sid)
    call("session.close", session=sid)
    call("session.restore", state=snapshot["state"])
    call("session.close", session=sid)
    return all_ops


def test_every_command_round_trips_through_the_wire():
    service = make_service(n_nodes=4, seed=2)
    client = ServiceClient(service)
    exercised = set()

    def call(op, session=None, **args):
        response = rt(client, op, session=session, **args)
        exercised.add(op)
        assert response.ok, (op, response.error)
        return response.result

    all_ops = run_every_command(service, call)
    assert exercised == all_ops, sorted(all_ops - exercised)


# ---------------------------------------------------------------------------
# resource manager plane
# ---------------------------------------------------------------------------
def test_job_lifecycle_and_ownership():
    service = make_service(n_nodes=4)
    client = ServiceClient(service)
    owner = client.open_session("owner", role="runtime")
    intruder = client.open_session("intruder", role="runtime")
    rm = client.open_session("site", role="resource_manager")

    job = owner.result(
        "jobs.submit", app={"kind": "stream", "n_iterations": 4}, nodes=1
    )
    assert job["user"] == "owner"
    assert job["state"] in ("running", "pending")

    denied = intruder.call("jobs.cancel", job_id=job["job_id"])
    assert denied.error["code"] == ServiceErrorCode.NO_PERMISSION.value
    denied_rt = intruder.call("runtime.report", job_id=job["job_id"])
    assert denied_rt.error["code"] == ServiceErrorCode.NO_PERMISSION.value

    # The runtime binds its nodes when the job's simulator starts — one
    # DES step in.
    rm.result("jobs.advance", duration_s=0.01)
    report = owner.result("runtime.report", job_id=job["job_id"])
    assert report["nodes"] == 1.0
    owner.result("runtime.request_power", job_id=job["job_id"], watts=25.0)

    stats = rm.result("jobs.run")
    assert stats["stats"]["jobs_completed"] >= 1.0
    done = owner.result("jobs.query", job_id=job["job_id"])
    assert done["state"] == "completed"

    missing = owner.call("jobs.query", job_id="nope")
    assert missing.error["code"] == ServiceErrorCode.NO_JOB.value
    bad_app = owner.call("jobs.submit", app={"kind": "not-an-app"})
    assert bad_app.error["code"] == ServiceErrorCode.BAD_REQUEST.value
    cancel_done = owner.call("jobs.cancel", job_id=job["job_id"])
    assert cancel_done.error["code"] == ServiceErrorCode.BAD_VALUE.value


def test_unrunnable_job_rejected_with_reason():
    client = ServiceClient(make_service(n_nodes=2))
    owner = client.open_session("owner", role="runtime")
    job = owner.result("jobs.submit", app="stream", nodes=64, nodes_min=32, nodes_max=64)
    assert job["state"] == "failed"
    assert "no acceptable node count" in job["reject_reason"]


@pytest.mark.parametrize(
    "params", [{"x": 1}, {"threads_per_rank": 9999}], ids=["unknown-name", "disallowed-value"]
)
def test_submit_with_refused_params_does_not_wedge_the_queue(params):
    """Params the application refuses reject the submit before it is
    queued.  They used to raise inside the submit's own scheduling pass,
    leaving the job pending at the FCFS head: every later submit answered
    with its error and ``jobs.run`` ran nothing."""
    service = make_service(n_nodes=2)
    wire = _wire_caller(service)
    a, b, ops = (
        wire("session.open", tenant=tenant, role=role).result["session"]
        for tenant, role in (("a", "runtime"), ("b", "runtime"), ("ops", "resource_manager"))
    )
    refused = wire("jobs.submit", a, app={"kind": "stream"}, params=params)
    assert refused.error_code == ServiceErrorCode.BAD_REQUEST.value
    served = wire("jobs.submit", b, app={"kind": "stream", "n_iterations": 4})
    assert served.ok and served.result["job_id"] == "job-00001", served.error
    assert wire("jobs.run", ops).ok
    assert wire("jobs.query", b, job_id="job-00001").result["state"] == "completed"
    assert [job["job_id"] for job in wire("jobs.list", ops).result] == ["job-00001"]


def test_rejected_submit_spends_no_job_id():
    """A job id is taken only once the scheduler accepts the job, and an
    id a client chose is never issued again."""
    wire = _wire_caller(make_service(n_nodes=2))
    a = wire("session.open", tenant="a", role="runtime").result["session"]
    assert wire("jobs.submit", a, app="stream", nodes=0).error_code == "SVC_RET_BAD_REQUEST"
    assert wire("jobs.submit", a, app="stream").result["job_id"] == "job-00001"
    assert wire("jobs.submit", a, app="stream", job_id="job-00003").ok
    assert wire("jobs.submit", a, app="stream").result["job_id"] == "job-00004"


# ---------------------------------------------------------------------------
# tuning plane
# ---------------------------------------------------------------------------
def test_tuning_quota_enforced_atomically():
    client = ServiceClient(make_service())
    session = client.open_session("tiny", role="runtime", quota=5)
    tuner = session.result(
        "tuning.open", parameters={"x": [1, 2, 3, 4, 5, 6]}, search="random", batch_size=6
    )
    asked = session.result("tuning.ask", tuner_id=tuner["tuner_id"], n=6)
    results = [{"config": c, "objective": 1.0} for c in asked["configs"]]
    denied = session.call("tuning.tell", tuner_id=tuner["tuner_id"], results=results)
    assert denied.error["code"] == ServiceErrorCode.QUOTA_EXCEEDED.value
    # Atomic: nothing was charged or recorded by the failed tell.
    assert session.result("session.info")["used_evaluations"] == 0
    told = session.result(
        "tuning.tell", tuner_id=tuner["tuner_id"], results=results[:5]
    )
    assert told["recorded"] == 5
    assert told["quota_remaining"] == 0
    run_denied = session.call(
        "tuning.run", parameters={"x": [1, 2]}, evaluator="quadratic", max_evals=4
    )
    assert run_denied.error["code"] == ServiceErrorCode.QUOTA_EXCEEDED.value


def test_tuning_results_land_in_sharded_database():
    service = make_service(n_shards=4)
    client = ServiceClient(service)
    session = client.open_session("acme", role="runtime")
    tuner = session.result(
        "tuning.open", parameters={"x": [0, 1, 2, 3]}, search="grid", batch_size=4
    )
    asked = session.result("tuning.ask", tuner_id=tuner["tuner_id"])
    session.result(
        "tuning.tell",
        tuner_id=tuner["tuner_id"],
        results=[
            {"config": c, "objective": float(c["x"]), "metrics": {"runtime_s": 1.0}}
            for c in asked["configs"]
        ],
    )
    records = service.database.lookup(tenant="acme")
    assert len(records) == len(asked["configs"])
    assert {r.tags["tuner"] for r in records} == {tuner["tuner_id"]}
    best = session.result("tuning.best", tuner_id=tuner["tuner_id"])
    assert best["best"]["objective"] == 0.0
    # The session key routes all of them onto one shard.
    sizes = service.database.shard_sizes()
    assert sorted(sizes)[-1] == len(records)


def test_tuning_infeasible_results_are_penalised_not_best():
    client = ServiceClient(make_service())
    session = client.open_session("acme", role="runtime")
    tuner = session.result(
        "tuning.open", parameters={"x": [0, 1]}, search="grid", batch_size=2
    )
    asked = session.result("tuning.ask", tuner_id=tuner["tuner_id"])
    results = [
        {"config": asked["configs"][0], "objective": 0.0, "feasible": False},
        {"config": asked["configs"][1], "objective": 5.0},
    ]
    told = session.result("tuning.tell", tuner_id=tuner["tuner_id"], results=results)
    # The reported best must be deployable: the infeasible 0.0 record is
    # stored (natural objective) but never surfaces as "best".
    assert told["best"]["objective"] == 5.0
    assert told["best"]["feasible"] is True
    best = session.result("tuning.best", tuner_id=tuner["tuner_id"])
    assert best["best"]["objective"] == 5.0
    # Both records are in the capture, the infeasible one flagged.
    records = session.result("db.where", tags={"tuner": tuner["tuner_id"]})["records"]
    assert sorted(r["objective"] for r in records) == [0.0, 5.0]
    assert [r["feasible"] for r in sorted(records, key=lambda r: r["objective"])] == [
        False,
        True,
    ]


# -- running best per tuner -------------------------------------------------
def _scan_best(service, tenant, session_id, tuner_id, minimize):
    """The store-scan oracle for a tuner's best: ``min``/``max`` over its
    feasible records in global order, first on ties."""
    pool = service.database.where(
        feasible=True, tenant=tenant, session=session_id, tuner=tuner_id
    )
    if not pool:
        return None
    return (min if minimize else max)(pool, key=lambda r: r.objective).to_dict()


_OBJECTIVE = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-10.0, 10.0))
_RESULT = st.tuples(st.integers(0, 7), _OBJECTIVE, st.booleans())
_ACTION = st.one_of(
    st.tuples(st.just("tell"), st.integers(0, 4), st.lists(_RESULT, min_size=1, max_size=6)),
    st.tuples(st.just("infeasible"), st.integers(0, 4), st.integers(1, 4)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("recover"), st.booleans()),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_ACTION, min_size=1, max_size=30))
def test_running_best_equals_store_scan(actions):
    """tell's ``best`` and ``tuning.best`` equal a scan of the store after
    every call: ties, all-infeasible batches, ``minimize=False``, sessions
    sharing a shard, and checkpoints and recovers (also from an older
    copy, which drops records) mid-stream."""
    with tempfile.TemporaryDirectory() as root:
        service = make_service(n_shards=2)
        client = ServiceClient(service)
        operator = client.open_session("ops", role="resource_manager")
        operator.result("db.checkpoint", directory=os.path.join(root, "live"))
        tuners = []
        for tenant, directions in (("a", (True, False)), ("a", (False,)), ("b", (True,)),
                                   ("c", (False,))):
            session = client.open_session(tenant, role="runtime")
            for minimize in directions:
                opened = session.result(
                    "tuning.open", parameters={"x": list(range(8))}, search="random",
                    minimize=minimize,
                )
                tuners.append((session, tenant, opened["tuner_id"], minimize))
        copies = []

        def check(told=None, index=None):
            for position, (session, tenant, tuner_id, minimize) in enumerate(tuners):
                expected = _scan_best(service, tenant, session.session_id, tuner_id, minimize)
                if position == index:
                    assert told["best"] == expected
                best = session.result("tuning.best", tuner_id=tuner_id)["best"]
                assert best == expected

        for action in actions:
            if action[0] in ("tell", "infeasible"):
                index = action[1]
                session, _, tuner_id, _ = tuners[index]
                if action[0] == "tell":
                    results = [
                        {"config": {"x": x}, "objective": objective, "feasible": feasible}
                        for x, objective, feasible in action[2]
                    ]
                else:
                    results = [
                        {"config": {"x": x}, "objective": -100.0, "feasible": False}
                        for x in range(action[2])
                    ]
                told = session.result("tuning.tell", tuner_id=tuner_id, results=results)
                check(told, index)
            elif action[0] == "checkpoint":
                operator.result("db.checkpoint")
                copies.append(os.path.join(root, f"copy{len(copies)}"))
                shutil.copytree(service.database.journal.directory, copies[-1])
                check()
            else:
                rewind = action[1] and copies
                directory = copies[-1] if rewind else service.database.journal.directory
                operator.result("db.recover", directory=directory)
                check()


def test_tuning_best_reads_tuner_records_stored_outside_tell():
    """Records that reach a tuner's tags other than through its tells (a
    campaign tagged with the tuner id, a restored session reopening the
    id) count towards its best, as a scan of the store would."""
    service = make_service()
    client = ServiceClient(service)
    session = client.open_session("acme", role="runtime")
    tuner_id = session.result("tuning.open", parameters={"x": [0, 1]}, search="grid")["tuner_id"]
    session.result("tuning.tell", tuner_id=tuner_id,
                   results=[{"config": {"x": 0}, "objective": 1e12}])
    session.result(
        "campaign.run",
        scenarios=[{"use_case": "uc6", "params": {"n_iterations": 6, "n_nodes": 2},
                    "seeds": [1], "tags": {"tuner": tuner_id}}],
        name="tagged",
    )
    expected = _scan_best(service, "acme", session.session_id, tuner_id, True)
    assert expected["tags"]["campaign"] == "tagged"
    assert session.result("tuning.best", tuner_id=tuner_id)["best"] == expected

    state = session.result("session.snapshot")["state"]
    session.close()
    client.result("session.restore", state=state)
    reopened = session.result("tuning.open", parameters={"x": [0, 1]}, search="grid")
    assert reopened["tuner_id"] == tuner_id
    assert session.result("tuning.best", tuner_id=tuner_id)["best"] == expected


def test_tuning_tell_and_best_never_scan_the_store(monkeypatch):
    """tell and best cost O(batch): with the store scan disabled, 50 rounds
    of ask/tell/best still answer the client-side minimum."""
    client = ServiceClient(make_service())
    session = client.open_session("acme", role="runtime")
    tuner_id = session.result(
        "tuning.open", parameters={"x": list(range(64)), "y": list(range(64))},
        search="random", batch_size=4,
    )["tuner_id"]

    def no_scan(*args, **kwargs):
        raise AssertionError("tuning.tell/tuning.best scanned the store")

    monkeypatch.setattr(ShardedPerformanceDatabase, "where", no_scan)
    expected = None
    for round_ in range(50):
        results = []
        for config in session.result("tuning.ask", tuner_id=tuner_id)["configs"]:
            objective = float((config["x"] * 7 + config["y"] + round_) % 97)
            feasible = (config["x"] + round_) % 5 != 0
            results.append({"config": config, "objective": objective, "feasible": feasible})
            if feasible and (expected is None or objective < expected):
                expected = objective
        told = session.result("tuning.tell", tuner_id=tuner_id, results=results)
        best = session.result("tuning.best", tuner_id=tuner_id)["best"]
        assert told["best"] == best
        assert (None if best is None else best["objective"]) == expected


def test_service_and_netserver_import_without_scipy():
    """scipy loads on the first surrogate fit and networkx with the first
    region graph, not with the service, the server or the campaigns."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys, repro.service, repro.netserver, repro.experiments, repro.core.usecases\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_tuning_errors():
    client = ServiceClient(make_service())
    session = client.open_session("acme", role="runtime")
    assert (
        session.call("tuning.ask", tuner_id="nope").error["code"]
        == ServiceErrorCode.NO_TUNER.value
    )
    assert (
        session.call(
            "tuning.open", parameters={"x": []}, search="random"
        ).error["code"]
        == ServiceErrorCode.BAD_REQUEST.value
    )
    # Unhashable values answered SVC_RET_INTERNAL (TypeError).
    for unhashable in ([{}], [[1], [{}]]):
        response = session.call("tuning.open", parameters={"x": unhashable}, search="random")
        assert response.error["code"] == ServiceErrorCode.BAD_REQUEST.value
    wire = client.service.handle_wire(
        '{"op":"tuning.open","session":"%s","args":{"parameters":{"x":[[1],[{}]]}}}'
        % session.session_id
    )
    assert Response.from_json(wire).error_code == ServiceErrorCode.BAD_REQUEST.value
    info = session.result("session.info")
    assert info["open_tuners"] == [] and info["used_evaluations"] == 0
    assert (
        session.call(
            "tuning.open", parameters={"x": [1]}, search="not-a-search"
        ).error["code"]
        == ServiceErrorCode.BAD_REQUEST.value
    )
    assert (
        session.call(
            "tuning.run", parameters={"x": [1]}, evaluator="not-registered"
        ).error["code"]
        == ServiceErrorCode.BAD_REQUEST.value
    )
    tuner = session.result("tuning.open", parameters={"x": [1, 2]}, search="random")
    # The rejected ``not-a-search`` open spent no tuner ordinal (nor its seed stream).
    assert tuner["tuner_id"] == f"{session.session_id}/t1"
    bad_tell = session.call(
        "tuning.tell", tuner_id=tuner["tuner_id"], results=[{"objective": 1.0}]
    )
    assert bad_tell.error["code"] == ServiceErrorCode.BAD_REQUEST.value


# ---------------------------------------------------------------------------
# database plane: tenant isolation
# ---------------------------------------------------------------------------
def _seed_two_tenants(client):
    for tenant, objectives in (("acme", [1.0, 3.0]), ("globex", [2.0, 0.5])):
        session = client.open_session(tenant, role="runtime")
        tuner = session.result(
            "tuning.open", parameters={"x": [0, 1]}, search="grid", batch_size=2
        )
        asked = session.result("tuning.ask", tuner_id=tuner["tuner_id"])
        session.result(
            "tuning.tell",
            tuner_id=tuner["tuner_id"],
            results=[
                {"config": c, "objective": o}
                for c, o in zip(asked["configs"], objectives)
            ],
        )


def test_db_queries_are_tenant_scoped_for_working_roles():
    service = make_service()
    client = ServiceClient(service)
    _seed_two_tenants(client)

    acme = client.open_session("acme", role="runtime")
    assert acme.result("db.aggregate")["count"] == 2.0
    assert acme.result("db.best_for")["best"]["objective"] == 1.0
    top = acme.result("db.top_k", k=10)["records"]
    assert {r["tags"]["tenant"] for r in top} == {"acme"}
    # An explicit foreign-tenant filter is overridden by the session's
    # own tenant: no cross-tenant records ever come back.
    where = acme.result("db.where", tags={"tenant": "globex"})["records"]
    assert {r["tags"]["tenant"] for r in where} == {"acme"}

    # db.stats is tenant-scoped too: no foreign tenant names or global
    # record counts leak to a working role.
    stats = acme.result("db.stats")
    assert stats["tenants"] == ["acme"]
    assert stats["n_records"] == 2
    assert "shard_sizes" not in stats

    monitor = client.open_session("site", role="monitor")
    assert monitor.result("db.aggregate")["count"] == 4.0
    assert monitor.result("db.best_for")["best"]["objective"] == 0.5
    assert len(monitor.result("db.top_k", k=10)["records"]) == 4
    assert monitor.result("db.stats")["tenants"] == ["acme", "globex"]


def test_tenant_aggregate_and_stats_equal_the_merged_database():
    """A tenant's ``db.aggregate`` (feasible only or not) and ``db.stats``
    count equal ``objective_stats`` and ``len`` over the merged database's
    ``where`` for that tenant, an empty tenant included."""
    from repro.telemetry.database import objective_stats

    service = make_service()
    client = ServiceClient(service)
    for index, tenant in enumerate(("acme", "globex", "initech")):
        session = client.open_session(tenant, role="runtime")
        tuner = session.result("tuning.open", parameters={"x": list(range(8))},
                               search="random", seed=index)["tuner_id"]
        for tell in range(3):
            session.result("tuning.tell", tuner_id=tuner, results=[
                {"config": {"x": i}, "objective": ((7 * tell + 5 * i + index) % 11) / 3.0,
                 "feasible": (tell + i + index) % 4 != 0}
                for i in range(8)])
    merged = service.database.merged()
    for tenant in ("acme", "globex", "initech", "nobody"):
        session = client.open_session(tenant, role="runtime")
        for feasible_only in (False, True):
            pool = merged.where(feasible=True if feasible_only else None, tenant=tenant)
            expected = objective_stats(np.asarray([r.objective for r in pool]))
            assert session.result("db.aggregate", feasible_only=feasible_only) == expected
        assert session.result("db.stats")["n_records"] == len(merged.where(tenant=tenant))


def test_jobs_list_is_tenant_scoped_for_working_roles():
    service = make_service()
    client = ServiceClient(service)
    a = client.open_session("a", role="runtime")
    b = client.open_session("b", role="runtime")
    a.result("jobs.submit", app="stream", nodes=1)
    b.result("jobs.submit", app="stream", nodes=1)
    assert {j["user"] for j in a.result("jobs.list")} == {"a"}
    rm = client.open_session("site", role="resource_manager")
    assert {j["user"] for j in rm.result("jobs.list")} == {"a", "b"}


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
def test_campaign_through_service_captures_tagged_records():
    service = make_service()
    client = ServiceClient(service)
    session = client.open_session("acme", role="runtime", quota=10)
    summary = session.result(
        "campaign.run",
        scenarios=[
            {"use_case": "uc6", "params": {"n_iterations": 6, "n_nodes": 2}, "seeds": [1]}
        ],
        name="svc-camp",
    )
    assert summary["n_runs"] == 1
    assert summary["n_failed"] == 0
    records = service.database.lookup(tenant="acme", campaign="svc-camp")
    assert len(records) == 1
    assert records[0].tags["use_case"] == "uc6"
    assert session.result("session.info")["used_evaluations"] == 1

    bad = session.call("campaign.run", scenarios=[{"use_case": "uc99"}])
    assert bad.error["code"] == ServiceErrorCode.BAD_REQUEST.value
    bad_param = session.call(
        "campaign.run", scenarios=[{"use_case": "uc6", "params": {"nope": 1}}]
    )
    assert bad_param.error["code"] == ServiceErrorCode.BAD_REQUEST.value


# ---------------------------------------------------------------------------
# the JSON-lines driver
# ---------------------------------------------------------------------------
def test_run_stream_scripted_session():
    service = make_service(n_nodes=2)
    script = "\n".join(
        [
            "# control-plane smoke",
            '{"op":"session.open","args":{"tenant":"ops","role":"resource_manager"}}',
            "",
            '{"op":"power.set_caps","session":"s0001-ops","args":{"indices":[0,1],"watts":290.0}}',
            '{"op":"db.stats","session":"s0001-ops"}',
            "garbage",
        ]
    )
    out = io.StringIO()
    handled = run_stream(service, io.StringIO(script + "\n"), out)
    lines = [Response.from_json(line) for line in out.getvalue().splitlines()]
    assert handled == 4
    assert [r.ok for r in lines] == [True, True, True, False]
    assert lines[-1].error_code == ServiceErrorCode.BAD_REQUEST.value


def test_stdin_driver_closes_the_service_when_input_ends(monkeypatch, tmp_path):
    """The journal a piped db.checkpoint attached is closed at end of input."""
    journals = []
    close = StackService.close

    def recording_close(service):
        journals.append(service.database.journal)
        close(service)

    monkeypatch.setattr(StackService, "close", recording_close)
    checkpoint = {"op": "db.checkpoint", "session": "s0001-ops",
                  "args": {"directory": str(tmp_path / "dur")}}
    script = '{"op":"session.open","args":{"tenant":"ops","role":"administrator"}}\n'
    monkeypatch.setattr(sys, "stdin", io.StringIO(script + json.dumps(checkpoint) + "\n"))
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert service_main(["--nodes", "2"]) == 0
    (journal,) = journals
    assert journal is not None
    assert all(segment.closed for segment in journal._segments)


def test_client_raises_helper_and_context_manager():
    client = ServiceClient(make_service())
    with pytest.raises(ServiceCallError) as err:
        client.result("no.such.op")
    assert err.value.code == ServiceErrorCode.UNKNOWN_COMMAND.value
    with client.open_session("acme") as session:
        assert session.result("session.info")["tenant"] == "acme"
    # closed on exit
    assert session.call("session.info").error_code == ServiceErrorCode.NO_SESSION.value


def test_protocol_version_constant_exported():
    assert PROTOCOL_VERSION == "1.0"


# ---------------------------------------------------------------------------
# wire hardening (malformed / hostile input)
# ---------------------------------------------------------------------------
def test_wire_rejects_oversized_request():
    service = make_service(n_nodes=2)
    huge = '{"op":"service.ping","args":{"payload":"' + "x" * service.MAX_REQUEST_BYTES + '"}}'
    response = Response.from_json(service.handle_wire(huge))
    assert not response.ok
    assert response.error_code == ServiceErrorCode.BAD_REQUEST.value
    assert "wire limit" in response.error["message"]


def test_wire_survives_pathologically_nested_json():
    """Deep nesting blows Python's recursion limit inside the JSON parser;
    the service must answer with a structured error, not raise."""
    service = make_service(n_nodes=2)
    depth = 50_000
    bomb = '{"op": ' + "[" * depth + "]" * depth + "}"
    response = Response.from_json(service.handle_wire(bomb))
    assert not response.ok
    assert response.error_code == ServiceErrorCode.BAD_REQUEST.value


@pytest.mark.parametrize(
    "app",
    [
        # An integer field of 1e309 (inf) used to fail int() as SVC_RET_INTERNAL.
        '{"kind":"stream","array_mib":1e309}',
        '{"kind":"kernel","n_iterations":1e309}',
        '{"kind":"lulesh","problem_size":1e309}',
        # These used to be accepted: the job "completed" with a NaN end time,
        # or failed mid-run and stayed "running".
        '{"kind":"kernel","base_seconds":NaN}',
        '{"kind":"kernel","base_seconds":1e309}',
        '{"kind":"kernel","base_seconds":-4.0}',
    ],
    ids=[
        "stream-array_mib-inf",
        "kernel-n_iterations-inf",
        "lulesh-problem_size-inf",
        "kernel-base_seconds-nan",
        "kernel-base_seconds-inf",
        "kernel-base_seconds-negative",
    ],
)
def test_jobs_submit_rejects_hostile_app_specs_over_the_wire(app):
    service = make_service(n_nodes=2)
    opened = Response.from_json(
        service.handle_wire('{"op":"session.open","args":{"tenant":"acme","role":"runtime"}}')
    )
    session = opened.result["session"]
    response = Response.from_json(
        service.handle_wire(
            '{"op":"jobs.submit","session":"%s","args":{"app":%s}}' % (session, app)
        )
    )
    assert not response.ok
    assert response.error_code == ServiceErrorCode.BAD_REQUEST.value
    listed = Response.from_json(
        service.handle_wire('{"op":"jobs.list","session":"%s"}' % session)
    )
    assert listed.ok and listed.result == []


@pytest.mark.parametrize(
    "result, code",
    [
        # Stored as feasible: bool("false") is True.
        ('{"config":{"x":1},"objective":1.0,"feasible":"false"}', "PWR_RET_BAD_VALUE"),
        # Accepted through float().
        ('{"config":{"x":1},"objective":"1.5"}', "PWR_RET_BAD_VALUE"),
        ('{"config":{"x":1},"objective":true}', "PWR_RET_BAD_VALUE"),
        # These answered SVC_RET_INTERNAL (TypeError, OverflowError).
        ('{"config":{"x":1},"objective":null}', "PWR_RET_BAD_VALUE"),
        ('{"config":{"x":1},"objective":[1]}', "PWR_RET_BAD_VALUE"),
        ('{"config":{"x":1},"objective":%s}' % ("9" * 401), "PWR_RET_BAD_VALUE"),
        ('{"config":5,"objective":1.0}', "SVC_RET_BAD_REQUEST"),
        ('{"config":null,"objective":1.0}', "SVC_RET_BAD_REQUEST"),
        # A list of pairs passed dict() as a config.
        ('{"config":[["x",1]],"objective":1.0}', "SVC_RET_BAD_REQUEST"),
        # An unhashable value answered SVC_RET_INTERNAL (TypeError).
        ('{"config":{"x":[{}]},"objective":1.0}', "PWR_RET_BAD_VALUE"),
    ],
    ids=[
        "feasible-string",
        "objective-string",
        "objective-bool",
        "objective-null",
        "objective-list",
        "objective-401-digits",
        "config-number",
        "config-null",
        "config-pairs",
        "config-unhashable-value",
    ],
)
def test_tuning_tell_rejects_hostile_results_over_the_wire(result, code):
    """A hostile result rejects the whole tell before anything is charged,
    told or written: the valid result ahead of it is not recorded either."""
    service = make_service(n_nodes=2)

    def wire(text):
        return Response.from_json(service.handle_wire(text))

    session = wire(
        '{"op":"session.open","args":{"tenant":"acme","role":"runtime","quota":10}}'
    ).result["session"]
    tuner = wire(
        '{"op":"tuning.open","session":"%s","args":{"parameters":{"x":[1,2]},"search":"grid"}}'
        % session
    ).result["tuner_id"]
    response = wire(
        '{"op":"tuning.tell","session":"%s","args":{"tuner_id":"%s","results":'
        '[{"config":{"x":2},"objective":0.5},%s]}}' % (session, tuner, result)
    )
    assert not response.ok
    assert response.error_code == code
    info = wire('{"op":"session.info","session":"%s"}' % session).result
    assert info["used_evaluations"] == 0
    best = wire('{"op":"tuning.best","session":"%s","args":{"tuner_id":"%s"}}'
                % (session, tuner)).result
    assert best["best"] is None
    assert len(service.database) == 0
    closed = wire('{"op":"tuning.close","session":"%s","args":{"tuner_id":"%s"}}'
                  % (session, tuner)).result
    assert closed["told_total"] == 0


def test_job_failing_mid_run_is_failed_and_released_over_the_wire():
    """A stream of 1e308 MiB is a valid spec, but its phases overflow to
    an infinite duration: the job fails with the reason, frees its node
    and its power commitment, and a long advance no longer samples it."""
    service = make_service(n_nodes=4)

    def wire(op, session=None, **args):
        envelope = {"op": op, "args": args}
        if session is not None:
            envelope["session"] = session
        return Response.from_json(service.handle_wire(json.dumps(envelope)))

    session = wire("session.open", tenant="ci", role="resource_manager").result["session"]
    submitted = wire("jobs.submit", session, app={"kind": "stream", "array_mib": 1e308})
    assert submitted.ok and submitted.result["state"] == "running"
    assert wire("jobs.stats", session).result["committed_power_w"] > 0

    assert wire("jobs.advance", session, duration_s=10.0).ok
    job = wire("jobs.query", session, job_id=submitted.result["job_id"]).result
    assert job["state"] == "failed"
    assert job["end_time_s"] == 0.0
    assert job["failure_reason"].startswith("ValueError: ref_seconds must be finite")
    assert job["reject_reason"] is None
    assert wire("jobs.stats", session).result["committed_power_w"] == 0.0
    assert all(node.is_free for node in service.cluster.nodes)
    assert not service.scheduler.running
    # The failed job's runtime reset its node: uncapped, with the package
    # caps of the nodes no job ran on.
    assert all(node.node_power_cap_w is None for node in service.cluster.nodes)
    package_caps = {
        tuple(pkg.power_cap_w for pkg in node.packages) for node in service.cluster.nodes
    }
    assert len(package_caps) == 1

    samples = len(service.scheduler.power_series)
    assert wire("jobs.advance", session, duration_s=1e5).ok
    assert len(service.scheduler.power_series) == samples


def test_clock_advance_past_a_finite_time_is_rejected():
    """Two advances of 1.5e308 would make the clock infinite: the second
    answers PWR_RET_BAD_VALUE, the clock stays finite and every response
    that carries it is strict JSON."""
    service = make_service(n_nodes=2)
    wire = _wire_caller(service)
    session = wire("session.open", tenant="ops", role="resource_manager").result["session"]
    assert wire("jobs.advance", session, duration_s=1.5e308).result["time_s"] == 1.5e308
    refused = wire("jobs.advance", session, duration_s=1.5e308)
    assert refused.error["code"] == ServiceErrorCode.BAD_VALUE.value
    assert service.env.now == 1.5e308

    def reject_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    line = service.handle_wire('{"op":"service.ping"}')
    assert json.loads(line, parse_constant=reject_constant)["result"]["time_s"] == 1.5e308


def test_run_stream_outlives_hostile_lines():
    """The REPL loop answers every hostile line and keeps serving."""
    service = make_service(n_nodes=2)
    depth = 50_000
    script = "\n".join(
        [
            '{"op": ' + "[" * depth + "]" * depth + "}",
            "not json at all",
            '{"op":"service.ping","args":{"payload":1}}',
        ]
    )
    out = io.StringIO()
    handled = run_stream(service, io.StringIO(script + "\n"), out)
    lines = [Response.from_json(line) for line in out.getvalue().splitlines()]
    assert handled == 3
    assert [r.ok for r in lines] == [False, False, True]
    assert all(
        r.error_code == ServiceErrorCode.BAD_REQUEST.value for r in lines[:2]
    )


# ---------------------------------------------------------------------------
# tuning.run resilience (quota accounting on evaluator crashes)
# ---------------------------------------------------------------------------
def _metricless_evaluator(config):
    # runtime_s=None breaks the objective extraction *after* the evaluator
    # call, i.e. mid-batch inside tuner.run() — the quota-leak path.
    return {"runtime_s": None}


def test_tuning_run_evaluator_crash_refunds_quota_and_recovers():
    from repro.service.service import EVALUATOR_REGISTRY, register_evaluator

    register_evaluator("crash-test", _metricless_evaluator)
    try:
        client = ServiceClient(make_service(n_nodes=2))
        session = client.open_session("acme", role="runtime", quota=20)
        failed = session.call(
            "tuning.run",
            parameters={"x": [1, 2, 3, 4]},
            evaluator="crash-test",
            max_evals=8,
            batch_size=2,
        )
        assert failed.error["code"] == ServiceErrorCode.INTERNAL.value
        assert "failed mid-run" in failed.error["message"]
        # The unconsumed reservation was refunded and the tuner closed, so
        # the same session can spend its full remaining quota cleanly.
        assert session.result("session.info")["used_evaluations"] == 0
        ok = session.result(
            "tuning.run",
            parameters={"x": [1.0, 2.0, 3.0, 4.0]},
            evaluator="quadratic",
            max_evals=4,
            batch_size=2,
        )
        assert ok["evaluations"] == 4
        assert session.result("session.info")["used_evaluations"] == 4
    finally:
        del EVALUATOR_REGISTRY["crash-test"]


def test_tuning_run_rejected_config_charges_nothing():
    client = ServiceClient(make_service(n_nodes=2))
    session = client.open_session("acme", role="runtime", quota=10)
    rejected = session.call(
        "tuning.run",
        parameters={"x": [1, 2]},
        evaluator="quadratic",
        search="no-such-search",
        max_evals=4,
    )
    assert rejected.error["code"] == ServiceErrorCode.BAD_REQUEST.value
    assert session.result("session.info")["used_evaluations"] == 0


def test_rejected_tuning_run_spends_no_run_id_or_seed():
    """A run rejected for its search, its batch size or its quota spends
    no run id and no seed: another tenant's next run is the one a service
    that never saw the rejected runs gives."""
    def other_tenants_run(rejected):
        client = ServiceClient(make_service(n_nodes=2))
        a = client.open_session("a", role="runtime", quota=10)
        b = client.open_session("b", role="runtime")
        for args, code in rejected:
            response = a.call("tuning.run", **{"parameters": {"x": [1, 2]},
                                               "evaluator": "quadratic", "max_evals": 4, **args})
            assert response.error["code"] == code.value
        assert a.result("session.info")["used_evaluations"] == 0
        run = b.result("tuning.run", parameters={"x": [1, 2]}, evaluator="quadratic",
                       search="random", max_evals=4)
        return run["run_id"], run["seed"]

    clean = other_tenants_run([])
    assert clean[0] == "run-0001"
    assert other_tenants_run([({"search": "nope"}, ServiceErrorCode.BAD_REQUEST)]) == clean
    assert other_tenants_run([
        ({"search": "random", "batch_size": 0}, ServiceErrorCode.BAD_VALUE),
        ({"search": "random", "max_evals": 50}, ServiceErrorCode.QUOTA_EXCEEDED),
    ]) == clean


def _wire_caller(service):
    """``handle_wire`` with the envelope built from keyword arguments."""
    def wire(op, session=None, **args):
        envelope = {"op": op, "args": args}
        if session is not None:
            envelope["session"] = session
        return Response.from_json(service.handle_wire(json.dumps(envelope)))

    return wire


@pytest.mark.parametrize(
    "op, args, quota, code",
    [
        ("tuning.run", {"parameters": {"x": [1, 2, 3]}, "evaluator": "quadratic",
                        "search": "random", "max_evals": 2, "seed": -1},
         None, ServiceErrorCode.BAD_VALUE),
        ("campaign.run", {"scenarios": [{"use_case": "uc6", "seeds": [1, 2]}]},
         1, ServiceErrorCode.QUOTA_EXCEEDED),
        ("campaign.run", {"scenarios": []}, None, ServiceErrorCode.BAD_REQUEST),
    ],
    ids=["negative-seed", "campaign-over-quota", "empty-campaign"],
)
def test_rejected_run_or_campaign_spends_no_run_id_or_seed(op, args, quota, code):
    """A ``tuning.run`` with a negative seed and a ``campaign.run`` that is
    over quota or empty are rejected before they spend a run id: another
    tenant's next run gets the id and seed of a clean service's first."""
    def other_tenants_run(rejected):
        wire = _wire_caller(make_service(n_nodes=2))
        a = wire("session.open", tenant="a", role="runtime", quota=quota).result["session"]
        b = wire("session.open", tenant="b", role="runtime").result["session"]
        if rejected:
            assert wire(op, a, **args).error["code"] == code.value
        run = wire("tuning.run", b, parameters={"x": [1, 2, 3]}, evaluator="quadratic",
                   search="random", max_evals=2).result
        return run["run_id"], run["seed"]

    assert other_tenants_run(False) == ("run-0001", 132256957)
    assert other_tenants_run(True) == ("run-0001", 132256957)


@pytest.mark.parametrize(
    "max_workers", [0, (os.cpu_count() or 1) + 1], ids=["zero", "above-cpu-count"]
)
def test_campaign_max_workers_out_of_range_spends_nothing(max_workers):
    """``campaign.run`` answers PWR_RET_BAD_VALUE for a ``max_workers``
    outside ``[1, os.cpu_count()]`` before it charges the quota or takes a
    run id, so one request cannot choose how many workers the server
    starts, and another tenant's next run is a clean service's first."""
    def other_tenants_run(rejected):
        client = ServiceClient(make_service(n_nodes=2))
        a = client.open_session("a", role="runtime", quota=5)
        b = client.open_session("b", role="runtime")
        if rejected:
            response = a.call(
                "campaign.run", scenarios=[{"use_case": "uc6", "seeds": [1, 2]}],
                executor="thread", max_workers=max_workers,
            )
            assert response.error_code == ServiceErrorCode.BAD_VALUE.value
            assert "max_workers" in response.error["message"]
            assert a.result("session.info")["used_evaluations"] == 0
        run = b.result("tuning.run", parameters={"x": [1, 2, 3]}, evaluator="quadratic",
                       search="random", max_evals=2)
        return run["run_id"], run["seed"]

    assert other_tenants_run(False) == ("run-0001", 132256957)
    assert other_tenants_run(True) == ("run-0001", 132256957)


def test_rejected_negative_seed_open_spends_no_tuner_id_or_seed():
    """A ``tuning.open`` with a negative seed spends no tuner ordinal: the
    next open gets the id and seed a clean session's first open gets."""
    def first_open(rejected):
        wire = _wire_caller(make_service(n_nodes=2))
        a = wire("session.open", tenant="a", role="runtime").result["session"]
        if rejected:
            refused = wire("tuning.open", a, parameters={"x": [1, 2, 3]}, search="random",
                           seed=-1)
            assert refused.error["code"] == ServiceErrorCode.BAD_VALUE.value
        opened = wire("tuning.open", a, parameters={"x": [1, 2, 3]}, search="random").result
        return opened["tuner_id"], opened["seed"]

    assert first_open(False) == ("s0001-a/t1", 389167530)
    assert first_open(True) == ("s0001-a/t1", 389167530)


# ---------------------------------------------------------------------------
# chaos plane
# ---------------------------------------------------------------------------
def test_chaos_inject_status_clear_round_trip():
    from repro.faults import injector as faults

    client = ServiceClient(make_service(n_nodes=4))
    session = client.open_session("ops", role="resource_manager")
    try:
        assert session.result("chaos.status") == {"active": False}
        installed = session.result("chaos.inject", profile="bmc-chaos", seed=7)
        assert installed["profile"] == "bmc-chaos" and installed["enabled"]
        assert installed["kinds"] == ["bmc_stale", "bmc_timeout", "cap_write"]
        # Drive the power plane so the injector sees traffic.
        for watts in (250.0, 240.0, 230.0, 220.0):
            session.result("power.set_caps", indices=[0, 1, 2, 3], watts=watts)
        status = session.result("chaos.status")
        assert status["active"] and status["seed"] == 7
        cleared = session.result("chaos.clear")
        assert cleared["cleared"]
        assert session.result("chaos.status") == {"active": False}
        assert session.result("chaos.clear") == {"cleared": False}
    finally:
        faults.clear()


def test_chaos_inject_unknown_profile_rejected():
    client = ServiceClient(make_service(n_nodes=2))
    session = client.open_session("ops", role="resource_manager")
    denied = session.call("chaos.inject", profile="gremlins")
    assert denied.error["code"] == ServiceErrorCode.BAD_REQUEST.value
    assert "unknown fault profile" in denied.error["message"]


def test_chaos_inject_requires_working_role():
    from repro.faults import injector as faults

    client = ServiceClient(make_service(n_nodes=2))
    monitor = client.open_session("watcher", role="monitor")
    denied = monitor.call("chaos.inject", profile="all")
    assert not denied.ok and faults.active() is None
    # Reads stay open to monitors.
    assert monitor.result("chaos.status") == {"active": False}


@pytest.mark.parametrize("role", ["runtime", "operating_system"])
def test_chaos_inject_and_clear_require_an_operator_role(role):
    """A fault plan is process-wide, so it reaches every tenant's plane: a
    working role that is not an operator can neither install one nor clear
    an operator's."""
    from repro.faults import injector as faults

    service = make_service(n_nodes=2)

    def wire(op, session=None, **args):
        envelope = {"op": op, "args": args}
        if session is not None:
            envelope["session"] = session
        return Response.from_json(service.handle_wire(json.dumps(envelope)))

    tenant = wire("session.open", tenant="acme", role=role).result["session"]
    denied = wire("chaos.inject", tenant, profile="all")
    assert denied.error_code == ServiceErrorCode.NO_PERMISSION.value == "PWR_RET_NO_PERM"
    assert faults.active() is None
    operator = wire("session.open", tenant="ops", role="resource_manager").result["session"]
    try:
        assert wire("chaos.inject", operator, profile="bmc-chaos", seed=3).ok
        installed = faults.active()
        assert installed is not None
        denied = wire("chaos.clear", tenant)
        assert denied.error_code == "PWR_RET_NO_PERM"
        assert faults.active() is installed
        # Status stays open to every role.
        assert wire("chaos.status", tenant).result["active"]
    finally:
        faults.clear()
