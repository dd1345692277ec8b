"""Typed, JSON-round-trippable request/response envelopes.

The control plane's wire format: every command enters the stack as a
:class:`Request` and leaves it as a :class:`Response`, both plain frozen
dataclasses.  Every transport turns an envelope into wire text through
the one encoder here, :func:`encode_wire`, exactly once: a response
carries the handler's result as returned, and the C encoder converts
numpy values, enums and sets on the way out.
The envelopes carry a protocol version (checked on dispatch), a caller
request id (echoed back verbatim, so an async client can correlate), an
optional session id, and — on failure — a structured error with a spec
style code instead of a raised exception.

Error codes extend the Power API's (:class:`repro.powerapi.context.ErrorCode`):
power-plane failures keep their exact ``PWR_RET_*`` values on the wire,
service-plane failures use a parallel ``SVC_RET_*`` namespace.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.powerapi.context import ErrorCode as PowerErrorCode

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_WIRE_BYTES",
    "ServiceErrorCode",
    "ServiceError",
    "Request",
    "Response",
    "WIRE_ENCODE_ERRORS",
    "encode_wire",
    "not_wire_safe",
    "wire_limit_error",
    "decode_wire_line",
    "parse_wire_request",
]

#: Wire protocol version.  Major mismatch is rejected with
#: ``SVC_RET_UNSUPPORTED_PROTOCOL``; minor revisions are compatible.
PROTOCOL_VERSION = "1.0"

#: Upper bound on one wire envelope, shared by *every* transport: the
#: stdin JSON-lines driver caps its request lines here, and the framed
#: TCP transport (``repro.netserver``) rejects any frame whose declared
#: length exceeds it.  A transport feeding the service unbounded garbage
#: gets a structured ``SVC_RET_BAD_REQUEST``, not memory pressure from
#: parsing an arbitrarily large document.
MAX_WIRE_BYTES = 1 << 20


class ServiceErrorCode(str, Enum):
    """Structured error codes carried by failure responses.

    The first block mirrors :class:`~repro.powerapi.context.ErrorCode`
    value-for-value: a role-denied power command answers with the *same*
    code the ``PowerApiContext`` would raise, just wrapped in an envelope
    instead of an exception.
    """

    NOT_IMPLEMENTED = PowerErrorCode.NOT_IMPLEMENTED.value
    NO_PERMISSION = PowerErrorCode.NO_PERMISSION.value
    BAD_VALUE = PowerErrorCode.BAD_VALUE.value
    NO_OBJECT = PowerErrorCode.NO_OBJECT.value
    OUT_OF_SCOPE = PowerErrorCode.OUT_OF_SCOPE.value

    UNSUPPORTED_PROTOCOL = "SVC_RET_UNSUPPORTED_PROTOCOL"
    UNKNOWN_COMMAND = "SVC_RET_UNKNOWN_COMMAND"
    BAD_REQUEST = "SVC_RET_BAD_REQUEST"
    NO_SESSION = "SVC_RET_NO_SESSION"
    NO_JOB = "SVC_RET_NO_JOB"
    NO_TUNER = "SVC_RET_NO_TUNER"
    QUOTA_EXCEEDED = "SVC_RET_QUOTA_EXCEEDED"
    SNAPSHOT_CORRUPT = "SVC_RET_SNAPSHOT_CORRUPT"
    INTERNAL = "SVC_RET_INTERNAL"


class ServiceError(RuntimeError):
    """A failed service command with its structured error code.

    Raised internally by command handlers; the dispatcher converts it to
    a failure :class:`Response` — it never escapes the facade.
    """

    def __init__(self, code: ServiceErrorCode, message: str):
        super().__init__(f"{code.value}: {message}")
        self.code = code
        self.message = message


def _wire_default(value: Any) -> Any:
    """The wire encoder's hook for values JSON has no type for.

    Handlers return whatever is natural (numpy scalars and arrays, enums,
    sets); this converts exactly those, and the encoder encodes what it
    returns.  ``np.float64`` and ``str``/``int`` mixin enums never get
    here: they subclass a JSON type and encode natively.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return list(value)
    raise TypeError(f"result payload of type {type(value).__name__} is not wire-safe")


#: The one wire encoder.  Its C implementation walks a response once; the
#: ``default`` hook is called only for the values JSON has no type for.
#: Dictionary keys must be strings: keys are sorted as they are, so other
#: key types would change the byte order (a handler converts its own).
#: It keeps no table of the containers it is inside: a value that
#: contains itself nests until the recursion limit stops it.
_WIRE_ENCODER = json.JSONEncoder(sort_keys=True, default=_wire_default, check_circular=False)

#: What :func:`encode_wire` raises for a value it cannot encode: an
#: unconvertible type (``TypeError``), an int too long to print
#: (``ValueError``), nesting deeper than the interpreter's recursion
#: limit, a value that contains itself included (``RecursionError``).
WIRE_ENCODE_ERRORS = (TypeError, ValueError, RecursionError)


def encode_wire(value: Any) -> str:
    """The wire text of an envelope dictionary (or any wire value)."""
    return _WIRE_ENCODER.encode(value)


def _require_str(data: Mapping[str, Any], key: str, default: Optional[str] = None) -> str:
    value = data.get(key, default)
    if not isinstance(value, str) or not value:
        raise ServiceError(
            ServiceErrorCode.BAD_REQUEST, f"envelope field {key!r} must be a non-empty string"
        )
    return value


@dataclass(frozen=True)
class Request:
    """One command envelope: operation, arguments, session, correlation id."""

    op: str
    args: Mapping[str, Any] = field(default_factory=dict)
    session: Optional[str] = None
    request_id: str = "0"
    protocol: str = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", dict(self.args))

    def to_dict(self) -> Dict[str, Any]:
        """The envelope before encoding; ``args`` values are as given."""
        out: Dict[str, Any] = {
            "protocol": self.protocol,
            "op": self.op,
            "args": dict(self.args),
            "request_id": self.request_id,
        }
        if self.session is not None:
            out["session"] = self.session
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Request":
        if not isinstance(data, Mapping):
            raise ServiceError(ServiceErrorCode.BAD_REQUEST, "request must be an object")
        args = data.get("args", {})
        if not isinstance(args, Mapping):
            raise ServiceError(ServiceErrorCode.BAD_REQUEST, "'args' must be an object")
        session = data.get("session")
        if session is not None and not isinstance(session, str):
            raise ServiceError(ServiceErrorCode.BAD_REQUEST, "'session' must be a string")
        unknown = sorted(set(data) - {"protocol", "op", "args", "session", "request_id"})
        if unknown:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST, f"unknown envelope field(s) {unknown}"
            )
        return cls(
            op=_require_str(data, "op"),
            args=args,  # __post_init__ copies it
            session=session,
            request_id=str(data.get("request_id", "0")),
            protocol=_require_str(data, "protocol", default=PROTOCOL_VERSION),
        )

    def to_json(self) -> str:
        """The wire form: :meth:`to_dict` through :func:`encode_wire`."""
        return encode_wire(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Request":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ServiceError(
                ServiceErrorCode.BAD_REQUEST, f"request is not valid JSON: {error}"
            ) from error
        return cls.from_dict(data)


@dataclass(frozen=True)
class Response:
    """The answer envelope: result on success, structured error on failure.

    ``result`` holds the handler's value as it returned it (numpy values,
    tuples and all); the wire form is the text :meth:`to_json` encodes,
    and a response decoded by :meth:`from_json` holds plain JSON values.
    """

    ok: bool
    result: Any = None
    #: ``{"code": ..., "message": ...}`` when ``ok`` is false.
    error: Optional[Mapping[str, str]] = None
    request_id: str = "0"
    session: Optional[str] = None
    protocol: str = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if self.error is not None:
            object.__setattr__(self, "error", dict(self.error))

    @classmethod
    def success(cls, result: Any, request: Optional[Request] = None) -> "Response":
        return cls(
            ok=True,
            result=result,
            request_id=request.request_id if request is not None else "0",
            session=request.session if request is not None else None,
        )

    @classmethod
    def failure(
        cls,
        code: ServiceErrorCode,
        message: str,
        request: Optional[Request] = None,
    ) -> "Response":
        return cls(
            ok=False,
            error={"code": code.value, "message": str(message)},
            request_id=request.request_id if request is not None else "0",
            session=request.session if request is not None else None,
        )

    @property
    def error_code(self) -> Optional[str]:
        return None if self.error is None else self.error.get("code")

    def to_dict(self) -> Dict[str, Any]:
        """The envelope before encoding: ``result`` is :attr:`result` as is.

        Encode it once with :func:`encode_wire` (or :meth:`to_json`);
        ``json.loads(response.to_json())`` is the plain-JSON form.
        """
        out: Dict[str, Any] = {
            "protocol": self.protocol,
            "ok": self.ok,
            "request_id": self.request_id,
        }
        if self.session is not None:
            out["session"] = self.session
        if self.ok:
            out["result"] = self.result
        else:
            out["error"] = dict(self.error or {})
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Response":
        return cls(
            ok=bool(data["ok"]),
            result=data.get("result"),
            error=data.get("error"),
            request_id=str(data.get("request_id", "0")),
            session=data.get("session"),
            protocol=str(data.get("protocol", PROTOCOL_VERSION)),
        )

    def to_json(self) -> str:
        """The wire form: :meth:`to_dict` through :func:`encode_wire`."""
        return encode_wire(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Response":
        return cls.from_dict(json.loads(text))


def not_wire_safe(envelope: Mapping[str, Any], error: Exception) -> str:
    """The wire text answered in place of a response that cannot be sent.

    ``envelope`` is the response's pre-encode form and ``error`` why it
    failed to encode (or, on a transport with a response cap, to fit).
    The answer is ``SVC_RET_INTERNAL`` under the caller's ``request_id``
    and ``session``: a pipelined client waits on exactly that id.
    """
    return Response(
        ok=False,
        error={
            "code": ServiceErrorCode.INTERNAL.value,
            "message": f"response not wire-safe: {type(error).__name__}: {error}",
        },
        request_id=str(envelope.get("request_id", "0")),
        session=envelope.get("session"),
    ).to_json()


def wire_limit_error(n_bytes: int) -> ServiceError:
    """The structured oversize failure every transport answers with."""
    return ServiceError(
        ServiceErrorCode.BAD_REQUEST,
        f"request of {n_bytes} bytes exceeds the {MAX_WIRE_BYTES}-byte wire limit",
    )


def decode_wire_line(line: str) -> Dict[str, Any]:
    """One shared oversize/malformed gate for every wire transport.

    Enforces :data:`MAX_WIRE_BYTES` and JSON well-formedness, converting
    *any* parse failure — including pathological input whose failure is
    not a ``ValueError`` (deep nesting hitting the recursion limit, say)
    — into a structured :class:`ServiceError`.  Returns the raw envelope
    dictionary so a routing transport can inspect tenant/session fields
    before full :class:`Request` validation.
    """
    if len(line) > MAX_WIRE_BYTES:
        raise wire_limit_error(len(line))
    try:
        data = json.loads(line)
    except Exception as error:  # json can fail beyond ValueError on hostile input
        raise ServiceError(
            ServiceErrorCode.BAD_REQUEST,
            f"malformed request: {type(error).__name__}: {error}",
        ) from error
    if not isinstance(data, Mapping):
        raise ServiceError(ServiceErrorCode.BAD_REQUEST, "request must be an object")
    return dict(data)


def parse_wire_request(line: str) -> "Request":
    """Decode one wire line into a validated :class:`Request`.

    The composition every transport uses: :func:`decode_wire_line`
    (size + JSON shape) followed by :meth:`Request.from_dict` (envelope
    fields), all failures structured :class:`ServiceError`\\ s.
    """
    return Request.from_dict(decode_wire_line(line))


def protocol_compatible(protocol: str) -> Tuple[bool, str]:
    """Whether a request's protocol version is servable (major must match)."""
    ours = PROTOCOL_VERSION.split(".", 1)[0]
    theirs = protocol.split(".", 1)[0]
    return theirs == ours, ours
