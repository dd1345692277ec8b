"""The one wire encoder against the recursive normaliser it replaced.

``reference_encode`` is the former codec, kept here as the oracle: a deep
``jsonify`` copy of the payload, then ``json.dumps(sort_keys=True)``.
``encode_wire`` must produce the same bytes for every payload a handler
can return, raise ``TypeError`` wherever the reference did, and the
service must still answer a result it cannot encode with a structured
``SVC_RET_INTERNAL`` under the caller's request id.

Dictionary keys are strings throughout: the reference applied ``str(k)``
and sorted the strings, the encoder sorts keys as they are, so a handler
that needs another key type converts it itself.
"""

import enum
import itertools
import json
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.netserver import FrameBuffer
from repro.netserver.server import _Connection
from repro.service import Request, Response, StackService
from repro.service.envelopes import encode_wire
from test_service_api import run_every_command


def jsonify(value):
    """The former normaliser: a deep copy in plain JSON types."""
    if isinstance(value, (str, type(None))):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(v) for v in value]
    raise TypeError(f"result payload of type {type(value).__name__} is not wire-safe")


def reference_encode(value):
    return json.dumps(jsonify(value), sort_keys=True)


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blue"


class Mode(enum.Enum):
    FAST = 1
    SAFE = "safe"


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


_NUMPY_SCALAR_TYPES = [
    np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
    np.uint32, np.uint64, np.float16, np.float32, np.float64, np.longdouble,
]

_HASHABLE = st.one_of(
    st.text(max_size=6), st.integers(), st.floats(), st.booleans(), st.none()
)

_LEAVES = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.floats(),  # NaN, +-inf, +-0.0 and huge values included
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e308]),
    st.booleans(),
    st.none(),
    st.sampled_from(_NUMPY_SCALAR_TYPES).flatmap(
        lambda kind: hnp.from_dtype(np.dtype(kind))
    ),
    hnp.arrays(
        dtype=st.sampled_from([np.bool_, np.int32, np.int64, np.float32, np.float64]),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    ),
    st.sampled_from(list(Colour) + list(Mode) + list(Level)),
    st.sets(_HASHABLE, max_size=4),
    st.frozensets(_HASHABLE, max_size=4),
)

_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
def test_encoder_matches_the_reference_byte_for_byte(payload):
    assert encode_wire(payload) == reference_encode(payload)


@pytest.mark.parametrize("bad", [b"raw", 1 + 2j, object(), np.complex128(1j)])
@pytest.mark.parametrize(
    "wrap",
    [lambda v: v, lambda v: [1, v], lambda v: {"a": {"b": (v,)}}],
    ids=["bare", "in-list", "nested"],
)
def test_unencodable_values_raise_type_error_on_both_paths(bad, wrap):
    with pytest.raises(TypeError):
        reference_encode(wrap(bad))
    with pytest.raises(TypeError):
        encode_wire(wrap(bad))


def test_every_command_answers_with_the_reference_encoding(monkeypatch):
    """Each command's wire answer is exactly the reference encoding of the
    response its handler produced."""
    service = StackService(n_nodes=4, seed=2)
    handled = []
    handle = StackService.handle

    def recording_handle(self, request):
        response = handle(self, request)
        handled.append(response)
        return response

    monkeypatch.setattr(StackService, "handle", recording_handle)
    request_ids = itertools.count(1)
    answered = set()

    def call(op, session=None, **args):
        line = Request(op=op, args=args, session=session,
                       request_id=f"r{next(request_ids)}").to_json()
        wire = service.handle_wire(line)
        (response,) = handled
        handled.clear()
        assert wire == reference_encode(response.to_dict()), op
        assert response.ok, (op, response.error)
        answered.add(op)
        return json.loads(wire)["result"]

    all_ops = run_every_command(service, call)
    service.close()
    assert answered == all_ops, sorted(all_ops - answered)


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "result",
    [{"value": object()}, {"value": b"raw"}, _nested(100_000)],
    ids=["object", "bytes", "too-deep"],
)
def test_unencodable_result_answers_internal_under_its_request_id(monkeypatch, result):
    service = StackService(n_nodes=2, seed=0)
    client_session = Response.from_json(
        service.handle_wire(Request(op="session.open", args={"tenant": "acme"}).to_json())
    ).result["session"]
    monkeypatch.setattr(
        StackService._commands["session.info"], "handler", lambda self, session: result
    )
    line = Request(op="session.info", session=client_session, request_id="r42").to_json()
    response = Response.from_json(service.handle_wire(line))
    assert not response.ok and response.error_code == "SVC_RET_INTERNAL"
    assert "not wire-safe" in response.error["message"]
    assert response.request_id == "r42" and response.session == client_session
    # the socket transport answers the same through the same fallback
    envelope = service.handle_dict(json.loads(line))
    (frame,) = FrameBuffer().feed(_Connection._frame_response(envelope))
    assert Response.from_json(frame.decode()).to_dict() == response.to_dict()
