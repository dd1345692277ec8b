"""In-process client for :class:`~repro.service.service.StackService`.

The client always talks *wire*: every call serialises its request
envelope to JSON, hands the JSON line to the service, and parses the
JSON line that comes back.  There is no in-process fast path — so any
command that works here works identically through a socket/HTTP
front-end, and a test driving the client has exercised the full
dict → wire → dict round trip by construction.

:class:`ClientCore` holds ``call``/``result``/``open_session``; a
transport supplies only ``_exchange`` (one envelope out, its response
back): in-process ``handle_wire`` here, a socket in
:class:`~repro.netserver.client.NetworkServiceClient`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.service.envelopes import Request, Response
from repro.service.service import StackService

__all__ = ["ServiceClient", "SessionHandle", "ServiceCallError"]


class ServiceCallError(RuntimeError):
    """Raised by the raising helpers when a command answers with an error."""

    def __init__(self, response: Response):
        error = response.error or {}
        super().__init__(f"{error.get('code')}: {error.get('message')}")
        self.response = response
        self.code = response.error_code


def next_request(
    ids: Iterator[int], op: str, session: Optional[str], args: Dict[str, Any]
) -> Request:
    """One client's next envelope; its request ids run ``r1``, ``r2``, ..."""
    return Request(op=op, args=args, session=session, request_id=f"r{next(ids)}")


def unwrap(response: Response) -> Any:
    """The response's result, or :class:`ServiceCallError` if it failed."""
    if not response.ok:
        raise ServiceCallError(response)
    return response.result


def session_open_args(
    tenant: str, role: str, quota: Optional[int], scope_hostnames: Optional[list]
) -> Dict[str, Any]:
    """``session.open`` arguments; unset options stay off the wire."""
    args: Dict[str, Any] = {"tenant": tenant, "role": role}
    if quota is not None:
        args["quota"] = quota
    if scope_hostnames is not None:
        args["scope_hostnames"] = scope_hostnames
    return args


class ClientCore:
    """``call``/``result``/``open_session`` over one ``_exchange`` transport."""

    def __init__(self) -> None:
        self._request_ids = itertools.count(1)

    def _exchange(self, request: Request) -> Response:
        raise NotImplementedError

    def call(self, op: str, session: Optional[str] = None, **args: Any) -> Response:
        """Send one command; returns the parsed :class:`Response`."""
        return self._exchange(next_request(self._request_ids, op, session, args))

    def result(self, op: str, session: Optional[str] = None, **args: Any) -> Any:
        """Like :meth:`call` but unwraps the result, raising on error."""
        return unwrap(self.call(op, session=session, **args))

    def open_session(
        self,
        tenant: str,
        role: str = "monitor",
        quota: Optional[int] = None,
        scope_hostnames: Optional[list] = None,
    ) -> "SessionHandle":
        args = session_open_args(tenant, role, quota, scope_hostnames)
        info = self.result("session.open", **args)
        return SessionHandle(self, info["session"], info)


class ServiceClient(ClientCore):
    """Talks JSON lines to a service instance (or any compatible callable)."""

    def __init__(self, service: StackService):
        super().__init__()
        self.service = service

    def _exchange(self, request: Request) -> Response:
        return Response.from_json(self.service.handle_wire(request.to_json()))


class SessionHandle:
    """One open session: every call carries the session id automatically.

    Over :class:`~repro.netserver.client.AsyncServiceClient` the same
    handle returns awaitables from ``call``/``result``/``close`` and is
    an ``async with`` context manager.
    """

    def __init__(self, client: Any, session_id: str, info: Mapping[str, Any]):
        self.client = client
        self.session_id = session_id
        self.info = dict(info)

    def call(self, op: str, **args: Any) -> Any:
        return self.client.call(op, session=self.session_id, **args)

    def result(self, op: str, **args: Any) -> Any:
        return self.client.result(op, session=self.session_id, **args)

    def close(self) -> Any:
        return self.result("session.close")

    # Closing an already-closed session is a NO_SESSION error — fine to
    # ignore on context exit.
    def __enter__(self) -> "SessionHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.call("session.close")

    async def __aenter__(self) -> "SessionHandle":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.call("session.close")
