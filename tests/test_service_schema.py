"""The service command schema, derived from the handler signatures.

* **catalogue** — the derived ``service.describe`` catalogue equals the
  one pinned in ``tests/golden/service_describe.json`` (captured from the
  hand-written table this schema replaced; arguments compare by name),
  and every command carries a doc;
* **error parity** — for every command, an unknown argument, each
  missing required argument and each wrong-kind value answer
  ``SVC_RET_BAD_REQUEST`` with the same message text as that table's
  validator; ``null`` passes the kind check of exactly the arguments
  annotated ``Optional[...]`` or ``Any``, and every other argument
  answers it with the kind error, required arguments included;
* **finite numbers** — ``NaN``, ``Infinity`` and ``1e309`` off the wire
  answer ``SVC_RET_BAD_VALUE`` and leave the shared state untouched; so
  does a ``tuning.tell`` metric that is not a finite number, while a
  ``metrics`` that is not an object answers ``SVC_RET_BAD_REQUEST``.
  Nothing is charged, told, stored or journaled.
"""

import json
import os
from typing import Any, get_args, get_type_hints

import pytest

from repro.durability import recover
from repro.service import Request, Response, ServiceClient, ServiceErrorCode, StackService

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "service_describe.json")
with open(GOLDEN, encoding="utf-8") as _fh:
    CATALOGUE = json.load(_fh)["commands"]

BAD_REQUEST = ServiceErrorCode.BAD_REQUEST.value

#: One accepted value per wire kind, and values each kind must refuse.
VALID = {"str": "x", "int": 1, "number": 1.5, "bool": True, "list": [], "dict": {}, "any": None}
WRONG = {
    "str": [1, ["x"]],
    "int": [1.5, True, "1"],
    "number": [True, "1.5"],
    "bool": [1, "true"],
    "list": ["x", {}],
    "dict": [[], "x"],
}


#: Services built by the running test, closed when it ends.
_BUILT = []


def make_service() -> StackService:
    service = StackService(n_nodes=4, seed=1)
    _BUILT.append(service)
    return service


@pytest.fixture(autouse=True)
def close_built_services():
    """Close every service the test built (a db.checkpoint journal stays open otherwise)."""
    yield
    while _BUILT:
        _BUILT.pop().close()


def test_derived_catalogue_matches_golden():
    described = ServiceClient(make_service()).result("service.describe")
    derived = [
        {
            "op": command["op"],
            "requires_session": command["requires_session"],
            "args": {
                arg["name"]: {"kind": arg["kind"], "required": arg["required"]}
                for arg in command["args"]
            },
        }
        for command in described["commands"]
    ]
    assert derived == CATALOGUE
    assert all(command["doc"].strip() for command in described["commands"])


@pytest.mark.parametrize("command", CATALOGUE, ids=[c["op"] for c in CATALOGUE])
def test_argument_errors_keep_code_and_message(command):
    service = make_service()
    op, args = command["op"], command["args"]
    required = {name: VALID[spec["kind"]] for name, spec in args.items() if spec["required"]}

    def answer(given):
        # No session: the schema check comes first, so session commands
        # that pass it answer SVC_RET_NO_SESSION without running.
        return service.handle(Request(op=op, args=given))

    def rejected(given):
        response = answer(given)
        assert not response.ok, (op, given)
        return response.error["code"], response.error["message"]

    assert rejected({**required, "zz_unknown": 1}) == (
        BAD_REQUEST,
        f"{op}: unknown argument(s) ['zz_unknown']; accepted: {sorted(args)}",
    )
    for name in required:
        given = {key: value for key, value in required.items() if key != name}
        assert rejected(given) == (
            BAD_REQUEST, f"{op}: missing required argument(s) [{name!r}]"
        )
    for name, spec in args.items():
        for value in WRONG.get(spec["kind"], []):
            assert rejected({**required, name: value}) == (
                BAD_REQUEST, f"{op}: argument {name!r} must be of kind {spec['kind']!r}"
            )
        if name in nullable(op):
            response = answer({**required, name: None})
            assert response.ok or "must be of kind" not in response.error["message"], name
        else:
            assert rejected({**required, name: None}) == (
                BAD_REQUEST, f"{op}: argument {name!r} must be of kind {spec['kind']!r}"
            )


def nullable(op: str) -> set:
    """The arguments of ``op`` whose handler annotation admits ``null``:
    ``Optional[...]`` or ``Any``."""
    hints = get_type_hints(getattr(StackService, "_cmd_" + op.replace(".", "_")))
    return {
        name for name, hint in hints.items() if hint is Any or type(None) in get_args(hint)
    }


#: Each sent with its required arguments ``null``: the first was served,
#: the other five answered SVC_RET_INTERNAL from inside their handlers.
NULL_PROBES = [
    ("session.open", {"tenant": None, "role": "runtime"}),
    ("session.restore", {"state": None}),
    ("jobs.advance", {"duration_s": None}),
    ("campaign.run", {"scenarios": None}),
    ("db.top_k", {"k": None}),
    ("db.recover", {"directory": None}),
]


def test_null_required_arguments_answer_bad_request_over_the_wire():
    service = make_service()
    opened = json.loads(service.handle_wire(
        '{"op":"session.open","args":{"tenant":"ops","role":"administrator"}}'
    ))["result"]["session"]
    for op, args in NULL_PROBES:
        envelope = {"op": op, "args": args, "session": opened}
        response = Response.from_json(service.handle_wire(json.dumps(envelope)))
        name = next(name for name, value in args.items() if value is None)
        assert response.error == {
            "code": BAD_REQUEST,
            "message": f"{op}: argument {name!r} must be of kind "
            f"{service._commands[op].args[name][0]!r}",
        }, op
    # The refused open opened nothing: the next session is the second.
    reopened = json.loads(service.handle_wire('{"op":"session.open","args":{"tenant":"x"}}'))
    assert reopened["result"]["session"] == "s0002-x"
    assert sorted(service._sessions) == ["s0001-ops", "s0002-x"]


def fingerprint(service: StackService) -> str:
    """Everything a hostile number could reach: the shared clock, caps and
    frequency targets, stored records, quota spend and tuner progress."""
    state = service.cluster.state
    return repr(
        (
            service.env.now,
            state.node_power_cap_w.tolist(),
            state.pkg_freq_target_ghz.tolist(),
            len(service.database),
            service.database.journal.appended,
            [
                (session.used_evaluations, [t.told for t in session.tuners.values()])
                for session in service._sessions.values()
            ],
        )
    )


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


#: case -> (op, args as wire text); ``json.loads`` turns each number into inf/NaN.
HOSTILE = {
    "advance-nan": ("jobs.advance", '{"duration_s": NaN}'),
    "run-inf": ("jobs.run", '{"extra_time_s": Infinity}'),
    "write-1e309": ("power.write", '{"path": "NODE", "attr": "power_limit_max", "value": 1e309}'),
    "caps-inf": ("power.set_caps", '{"indices": [0], "watts": Infinity}'),
    "caps-list-nan": ("power.set_caps", '{"indices": [0, 1], "watts": [250.0, NaN]}'),
    "freq-nan": ("power.set_frequencies", '{"indices": [0], "ghz": NaN}'),
    "freq-list-inf": ("power.set_frequencies", '{"indices": [0, 1], "ghz": [2.0, Infinity]}'),
    "request-power-nan": ("runtime.request_power", '{"job_id": "nope", "watts": NaN}'),
    "where-neg-inf": ("db.where", '{"max_objective": -Infinity}'),
    "tell-1e309": (
        "tuning.tell",
        '{"tuner_id": "TUNER", "results": [{"config": {"x": 1}, "objective": 1e309}]}',
    ),
    "tell-batch-nan": (
        "tuning.tell",
        '{"tuner_id": "TUNER", "results": [{"config": {"x": 1}, "objective": 1.0}, '
        '{"config": {"x": 2}, "objective": NaN}]}',
    ),
    "tell-metrics-nan": (
        "tuning.tell",
        '{"tuner_id": "TUNER", "results": [{"config": {"x": 1}, "objective": 1.0, '
        '"metrics": {"m": NaN}}]}',
    ),
    "tell-metrics-inf": (
        "tuning.tell",
        '{"tuner_id": "TUNER", "results": [{"config": {"x": 1}, "objective": 1.0, '
        '"metrics": {"m": Infinity}}]}',
    ),
    "tell-metrics-string": (
        "tuning.tell",
        '{"tuner_id": "TUNER", "results": [{"config": {"x": 1}, "objective": 1.0, '
        '"metrics": {"m": "fast"}}]}',
    ),
    "tell-metrics-batch-bool": (
        "tuning.tell",
        '{"tuner_id": "TUNER", "results": [{"config": {"x": 1}, "objective": 1.0, '
        '"metrics": {"m": 2.0}}, {"config": {"x": 2}, "objective": 1.0, '
        '"metrics": {"m": true}}]}',
    ),
    "tell-metrics-number": (
        "tuning.tell",
        '{"tuner_id": "TUNER", "results": [{"config": {"x": 1}, "objective": 1.0, '
        '"metrics": 5}]}',
    ),
    "tell-metrics-pairs": (
        "tuning.tell",
        '{"tuner_id": "TUNER", "results": [{"config": {"x": 1}, "objective": 1.0, '
        '"metrics": [[1, 2.0]]}]}',
    ),
}
#: Cases whose shape is wrong (not a bad number): ``SVC_RET_BAD_REQUEST``.
MALFORMED = {"tell-metrics-number", "tell-metrics-pairs"}


@pytest.mark.parametrize("case", list(HOSTILE), ids=list(HOSTILE))
def test_non_finite_numbers_are_rejected_and_change_nothing(case, tmp_path):
    op, args = HOSTILE[case]
    code = ServiceErrorCode.BAD_REQUEST if case in MALFORMED else ServiceErrorCode.BAD_VALUE
    service = make_service()
    operator = ServiceClient(service).open_session("ops", role="resource_manager", quota=10)
    operator.result("db.checkpoint", directory=str(tmp_path))
    operator.result("jobs.advance", duration_s=1.0)
    operator.result("power.set_caps", indices=[0, 1], watts=[300.0, None])
    tuner = operator.result("tuning.open", parameters={"x": [1, 2]}, search="grid")
    operator.result(
        "tuning.tell",
        tuner_id=tuner["tuner_id"],
        results=[{"config": {"x": 2}, "objective": 3.0}],
    )
    node = f"sim-cluster/{service.cluster.nodes[0].hostname}"
    args = args.replace("NODE", node).replace("TUNER", tuner["tuner_id"])
    before = fingerprint(service)

    line = f'{{"op": "{op}", "session": "{operator.session_id}", "args": {args}}}'
    response = Response.from_json(service.handle_wire(line))
    assert response.error_code == code.value, response.error
    assert fingerprint(service) == before
    replayed = recover(str(tmp_path), reattach=False)
    assert [r.to_dict() for r in replayed] == [r.to_dict() for r in service.database]

    aggregate = f'{{"op": "db.aggregate", "session": "{operator.session_id}"}}'
    stats = json.loads(service.handle_wire(aggregate), parse_constant=_reject_constant)
    assert stats["result"] == {"count": 1.0, "min": 3.0, "max": 3.0, "mean": 3.0,
                               "std": 0.0, "median": 3.0}
