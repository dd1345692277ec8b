"""The declared command contract: roles, ranges, choices and item kinds.

* **policy** — the roles, ranges, choices and item kinds
  ``service.describe`` publishes equal the pinned policy the handlers
  used to check by hand;
* **role grid** — a role outside a command's declared roles answers
  ``PWR_RET_NO_PERM`` before any argument value is looked at, and spends
  nothing;
* **bound grid** — a value just outside a declared range (a declared
  choice set) answers ``PWR_RET_BAD_VALUE`` (``SVC_RET_BAD_REQUEST``)
  before the handler runs and spends nothing; the boundary value passes.

Both grids are built from ``service.describe``, so a new declaration is
covered with no edit here beyond its line in the pinned policy.
"""

import math
import os

import pytest

from repro.powerapi.objects import AttrName, ObjType
from repro.powerapi.roles import Role
from repro.service import Request, Response, ServiceClient, ServiceErrorCode, StackService
from test_service_schema import BAD_REQUEST, fingerprint

DESCRIBED = {
    command["op"]: command
    for command in StackService(n_nodes=2).handle(Request(op="service.describe")).result["commands"]
}
ROLES = [role.value for role in Role]
OPERATOR = ["resource_manager", "administrator"]
WORKING = ["operating_system", "runtime", "resource_manager", "administrator"]
ATTRS = [attr.value for attr in AttrName]

#: Who may send each command that not every role may send.
POLICY_ROLES = {
    "jobs.submit": WORKING,
    "jobs.run": OPERATOR,
    "jobs.advance": OPERATOR,
    "tuning.open": WORKING,
    "tuning.run": WORKING,
    "campaign.run": WORKING,
    "db.checkpoint": OPERATOR,
    "db.recover": OPERATOR,
    "chaos.inject": OPERATOR,
    "chaos.clear": OPERATOR,
}
#: Every declared range, choice set and item kind.
POLICY_ARGS = {
    ("session.open", "role"): {"choices": ROLES},
    ("session.open", "quota"): {"ge": 0},
    ("session.open", "scope_hostnames"): {"items": "str"},
    ("power.read", "attr"): {"choices": ATTRS},
    ("power.write", "attr"): {"choices": ATTRS},
    ("power.read_group", "obj_type"): {"choices": [obj_type.value for obj_type in ObjType]},
    ("power.read_group", "attr"): {"choices": ATTRS},
    ("power.set_caps", "indices"): {"items": "int"},
    ("power.set_caps", "hostnames"): {"items": "str"},
    ("power.set_frequencies", "indices"): {"items": "int"},
    ("power.set_frequencies", "hostnames"): {"items": "str"},
    ("jobs.advance", "duration_s"): {"gt": 0},
    ("tuning.open", "batch_size"): {"ge": 1},
    ("tuning.open", "seed"): {"ge": 0},
    ("tuning.ask", "n"): {"ge": 1},
    ("tuning.run", "max_evals"): {"ge": 1},
    ("tuning.run", "batch_size"): {"ge": 1},
    ("tuning.run", "seed"): {"ge": 0},
    ("campaign.run", "executor"): {"choices": ["serial", "thread", "process"]},
    ("campaign.run", "max_workers"): {"ge": 1, "le": os.cpu_count() or 1},
    ("db.top_k", "k"): {"ge": 0},
    ("db.checkpoint", "keep_generations"): {"ge": 1},
}


def test_declared_contract_equals_the_policy():
    """``service.describe`` publishes the roles of every command and the
    declared values of every argument; they equal the policy the handlers
    used to check by hand."""
    roles = {op: command["roles"] for op, command in DESCRIBED.items()}
    assert {op: sent_by for op, sent_by in roles.items() if sent_by != ROLES} == POLICY_ROLES
    declared = {
        (op, arg["name"]): {k: v for k, v in arg.items() if k not in ("name", "kind", "required")}
        for op, command in DESCRIBED.items()
        for arg in command["args"]
    }
    assert {key: extra for key, extra in declared.items() if extra} == POLICY_ARGS


#: A valid value for each required argument name.  With only these, each
#: command the grids below send is refused by its handler or changes
#: nothing the grids compare.
REQUIRED = {
    "tenant": "probe", "state": {}, "path": "sim-cluster", "attr": "power", "value": 1.0,
    "obj_type": "node", "watts": 250.0, "ghz": 2.0, "app": "no-such-app",
    "job_id": "no-such-job", "duration_s": 1.0, "parameters": {"x": [1, 2]},
    "tuner_id": "no-such-tuner", "results": [], "evaluator": "quadratic", "scenarios": [],
    "k": 1, "directory": "no-such-durability-root", "profile": "no-such-profile",
}


def _required(op):
    return {arg["name"]: REQUIRED[arg["name"]] for arg in DESCRIBED[op]["args"] if arg["required"]}


def _outside(arg, side):
    """The value just outside an argument's declared ``side`` and the
    boundary value just inside it."""
    limit = arg[side]
    if arg["kind"] == "int":
        return {"ge": (limit - 1, limit), "gt": (limit, limit + 1), "le": (limit + 1, limit)}[side]
    return {
        "ge": (math.nextafter(limit, -math.inf), float(limit)),
        "gt": (float(limit), math.nextafter(limit, math.inf)),
        "le": (math.nextafter(limit, math.inf), float(limit)),
    }[side]


def _violations(op):
    """Every declared range of ``op`` just outside, and every declared
    choice set answered with a value outside it."""
    out = {}
    for arg in DESCRIBED[op]["args"]:
        if "choices" in arg:
            out[arg["name"]] = "no-such-choice"
        for side in ("ge", "gt", "le"):
            if side in arg:
                out[arg["name"]] = _outside(arg, side)[0]
    return out


def spent(service):
    """:func:`fingerprint` plus every id, ordinal and seed stream a request
    could spend, the queue and the process-wide fault plan."""
    from repro.faults import injector

    return (
        fingerprint(service),
        service._job_counter,
        service._run_counter,
        service._session_counter,
        dict(service._tenant_counters),
        sorted(service.scheduler.jobs),
        [(sid, s._tuner_counter, sorted(s.tuners)) for sid, s in service._sessions.items()],
        injector.active(),
    )


def contract_service(tmp_path):
    """A journaled service with one session per role, each with a quota."""
    service = StackService(n_nodes=4, seed=1)
    client = ServiceClient(service)
    sessions = {role: client.open_session(f"t-{role}", role=role, quota=10) for role in ROLES}
    sessions["administrator"].result("db.checkpoint", directory=str(tmp_path / "journal"))
    return service, {role: handle.session_id for role, handle in sessions.items()}


def _send(service, op, session, args):
    request = Request(op=op, args=args, session=session)
    return Response.from_json(service.handle_wire(request.to_json()))


@pytest.mark.parametrize("op", sorted(POLICY_ROLES))
def test_role_outside_the_declared_set_is_refused_before_its_arguments(op, tmp_path):
    """Every role × every role-restricted command, with each declared range
    just outside and each choice set missed: a role outside the set answers
    PWR_RET_NO_PERM and spends nothing; a role inside it passes the gate and
    meets the argument's own error, which spends nothing either."""
    from repro.faults import injector

    assert DESCRIBED[op]["roles"] != ROLES
    service, sessions = contract_service(tmp_path)
    violations = _violations(op)
    try:
        for role in ROLES:
            before = spent(service)
            response = _send(service, op, sessions[role], {**_required(op), **violations})
            if role not in DESCRIBED[op]["roles"]:
                assert response.error_code == ServiceErrorCode.NO_PERMISSION.value, role
                assert spent(service) == before, role
            elif violations:
                assert response.error_code in (BAD_REQUEST, ServiceErrorCode.BAD_VALUE.value)
                assert "argument" in response.error["message"], response.error
                assert spent(service) == before, role
            else:
                assert response.error_code != ServiceErrorCode.NO_PERMISSION.value, role
    finally:
        injector.clear()
        service.close()


DECLARED_VALUES = [
    (op, arg["name"], side)
    for op, command in DESCRIBED.items()
    for arg in command["args"]
    for side in ("ge", "gt", "le", "choices")
    if side in arg
]


@pytest.mark.parametrize(
    "op, name, side", DECLARED_VALUES, ids=[f"{op}-{name}-{side}" for op, name, side in DECLARED_VALUES]
)
def test_value_just_outside_a_declaration_is_refused_and_spends_nothing(op, name, side, tmp_path):
    """The value just outside a declared range answers PWR_RET_BAD_VALUE, and
    a value outside the declared choices SVC_RET_BAD_REQUEST, before the
    handler runs: no id, seed, quota, record or clock tick is spent.  The
    boundary value (a choice) passes the check."""
    service, sessions = contract_service(tmp_path)
    session = sessions["administrator"]
    arg = next(arg for arg in DESCRIBED[op]["args"] if arg["name"] == name)
    if side == "choices":
        outside, boundary, code = "no-such-choice", arg["choices"][0], BAD_REQUEST
    else:
        (outside, boundary), code = _outside(arg, side), ServiceErrorCode.BAD_VALUE.value
    try:
        before = spent(service)
        refused = _send(service, op, session, {**_required(op), name: outside})
        assert refused.error_code == code, refused.error
        assert f"argument {name!r}" in refused.error["message"]
        assert spent(service) == before
        passed = _send(service, op, session, {**_required(op), name: boundary})
        assert passed.ok or f"argument {name!r}" not in passed.error["message"], passed.error
    finally:
        service.close()


def _restored(**fields):
    state = {"session": "s0009-ghost", "tenant": "ghost", "role": "runtime", "ordinal": 1,
             "quota": None, "used_evaluations": 0, "scope_hostnames": None}
    return {"state": {**state, **fields}}


#: Each answered SVC_RET_INTERNAL (an unhashable item or a list passed to
#: ``int``), except the float ordinal, which was served.
HOSTILE_SHAPES = {
    "open-scope-nested-list": ("session.open", {"tenant": "x", "scope_hostnames": [[1]]}),
    "set-caps-nested-list": ("power.set_caps", {"hostnames": [[1]], "watts": 250.0}),
    "set-frequencies-object": ("power.set_frequencies", {"hostnames": [{}], "ghz": 2.0}),
    "restore-quota-list": ("session.restore", _restored(quota=[1])),
    "restore-scope-number": ("session.restore", _restored(scope_hostnames=5)),
    "restore-float-ordinal": ("session.restore", _restored(ordinal=1e300)),
}


@pytest.mark.parametrize("case", list(HOSTILE_SHAPES), ids=list(HOSTILE_SHAPES))
def test_hostile_shapes_answer_bad_request_and_register_nothing(case, tmp_path):
    """A list item or a ``session.restore`` state field of the wrong kind
    answers SVC_RET_BAD_REQUEST before anything is registered or written."""
    op, args = HOSTILE_SHAPES[case]
    service, sessions = contract_service(tmp_path)
    try:
        before = spent(service)
        response = _send(service, op, sessions["administrator"], args)
        assert response.error_code == BAD_REQUEST, response.error
        assert spent(service) == before
    finally:
        service.close()


def test_negative_quota_opens_no_session(tmp_path):
    """``session.open`` with a negative quota answers PWR_RET_BAD_VALUE and
    registers nothing: no session, ordinal or session number is spent."""
    service, sessions = contract_service(tmp_path)
    try:
        before = spent(service)
        args = {"tenant": "neg", "role": "runtime", "quota": -3}
        response = _send(service, "session.open", None, args)
        assert response.error_code == ServiceErrorCode.BAD_VALUE.value, response.error
        assert "argument 'quota'" in response.error["message"]
        assert spent(service) == before
    finally:
        service.close()


@pytest.mark.parametrize("fields", [{"quota": -1}, {"quota": 5, "used_evaluations": -1000}],
                         ids=["quota", "used_evaluations"])
def test_restore_refuses_negative_quota_accounting(fields, tmp_path):
    """A ``session.restore`` state whose quota or spend is negative answers
    PWR_RET_BAD_VALUE and registers nothing, so no restored session can
    spend past its quota."""
    service, sessions = contract_service(tmp_path)
    try:
        before = spent(service)
        response = _send(service, "session.restore", None, _restored(**fields))
        assert response.error_code == ServiceErrorCode.BAD_VALUE.value, response.error
        assert spent(service) == before
        assert "s0009-ghost" not in service._sessions
    finally:
        service.close()
