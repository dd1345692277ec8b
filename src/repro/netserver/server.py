"""Asyncio TCP front-end for one :class:`~repro.service.service.StackService`.

The single-process worker of the network control plane: an asyncio
server speaking length-framed JSON envelopes (``repro.netserver.framing``
over ``repro.service.envelopes``).  Each connection carries a *pipelined*
request stream — a client may have many requests in flight, responses
carry the request ids and (behind a router fanning one connection across
workers) may complete out of order.

Concurrency model, sized for the facade it fronts: ``StackService``
dispatch is serialised by an internal lock, so the server runs all
dispatch on one executor thread and spends its event loop purely on IO.
Requests are dispatched in adaptive batches (one executor hop amortised
over up to ``dispatch_batch`` queued envelopes), which is what makes
pipelined throughput a large multiple of ping-pong round trips.

Backpressure is credit-based at two scopes: a per-connection and a
per-tenant in-flight cap (``ServerLimits``).  The reader coroutine stops
consuming frames while a tenant is at its cap, so a flooding client is
throttled by TCP flow control without buffering unbounded requests —
and without affecting other tenants' connections.  Quota *accounting*
stays where it always was: the session machinery answers
``SVC_RET_QUOTA_EXCEEDED`` when a tenant's evaluation budget runs out.

Durability: pass ``journal_dir`` and every database write is teed
through the write-ahead journal (``repro.durability``) before the
in-memory state mutates; :meth:`NetworkServer.drain` checkpoints on the
way out, so SIGTERM loses nothing.
"""

from __future__ import annotations

import asyncio
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.netserver.framing import (
    MAX_FRAME_BYTES,
    MAX_RESPONSE_BYTES,
    FrameBuffer,
    FrameTooLarge,
    frame_text,
)
from repro.service.envelopes import (
    WIRE_ENCODE_ERRORS,
    Response,
    ServiceError,
    ServiceErrorCode,
    decode_wire_line,
    encode_wire,
    not_wire_safe,
)
from repro.service.service import StackService

__all__ = ["ServerLimits", "NetworkServer", "tenant_of_envelope"]


def tenant_of_envelope(payload: Mapping[str, Any]) -> str:
    """Best-effort tenant of one request envelope (for rate limiting/routing).

    Session ids are ``sNNNN-<tenant>`` (see ``StackService``), so an
    attached session names its tenant directly; ``session.open`` carries
    it in ``args.tenant`` and ``session.restore`` inside the snapshot
    blob.  Anything else maps to the anonymous tenant ``""``.
    """
    session = payload.get("session")
    if isinstance(session, str) and "-" in session:
        return session.split("-", 1)[1]
    args = payload.get("args")
    if isinstance(args, Mapping):
        tenant = args.get("tenant")
        if isinstance(tenant, str) and tenant:
            return tenant
        state = args.get("state")
        if isinstance(state, Mapping):
            tenant = state.get("tenant")
            if isinstance(tenant, str) and tenant:
                return tenant
    return ""


@dataclass(frozen=True)
class ServerLimits:
    """Admission/backpressure knobs for one :class:`NetworkServer`."""

    #: In-flight requests one connection may pipeline before its reader
    #: stalls (TCP flow control takes over).
    max_inflight_per_connection: int = 64
    #: In-flight requests across *all* of a tenant's connections — one
    #: flooding tenant cannot starve the dispatch thread.
    max_inflight_per_tenant: int = 256
    #: Open connections before new ones are refused with a structured
    #: ``SVC_RET_QUOTA_EXCEEDED`` frame.
    max_connections: int = 8192
    #: Queued envelopes dispatched per executor hop.
    dispatch_batch: int = 32


class NetworkServer:
    """Length-framed envelope server over one ``StackService``."""

    def __init__(
        self,
        service: StackService,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: Optional[ServerLimits] = None,
        journal_dir: Optional[str] = None,
    ):
        self.service = service
        self.host = host
        self.port = int(port)
        self.limits = limits if limits is not None else ServerLimits()
        self.journal_dir = journal_dir
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: The journal :meth:`start` attached, which :meth:`drain` closes.
        self._journal: Optional[Any] = None
        self._connections: Set["_Connection"] = set()
        #: Per-tenant in-flight credits, kept only while the tenant has a
        #: request in flight or waiting for a credit.
        self._tenant_slots: Dict[str, _TenantSlot] = {}
        self._draining = False
        #: Lifetime counters (diagnostics + bench assertions).
        self.n_connections = 0
        self.n_requests = 0
        self.n_refused = 0

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        if self.journal_dir is not None and self.service.database.journal is None:
            from repro.durability import attach

            self._journal = attach(self.service.database, self.journal_dir)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="svc-dispatch"
        )
        self._server = await asyncio.start_server(
            self.serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, checkpoint.

        The SIGTERM path: the listener closes, every connection's reader
        stops consuming frames, queued requests are dispatched and their
        responses flushed, and — with a journal attached — the database
        is checkpointed so recovery replays nothing.  A journal
        :meth:`start` attached is closed; one the caller attached is not.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        connections = list(self._connections)
        for connection in connections:
            connection.begin_drain()
        if connections:
            await asyncio.gather(
                *(connection.done.wait() for connection in connections)
            )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        database = self.service.database
        if getattr(database, "journal", None) is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, database.checkpoint
            )
        if self._journal is not None:  # a journal the caller attached stays open
            self._journal.close()
            self._journal = None

    # -- per-connection dispatch ------------------------------------------
    async def serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection, admission to teardown.

        Wire-dispatch entry point (RL002): nothing a peer sends — or any
        internal failure — may escape as an exception; errors become
        structured failure frames or a closed connection.
        """
        connection: Optional[_Connection] = None
        try:
            if self._draining or len(self._connections) >= self.limits.max_connections:
                self.n_refused += 1
                reason = (
                    "server is draining"
                    if self._draining
                    else f"connection limit {self.limits.max_connections} reached"
                )
                response = Response.failure(ServiceErrorCode.QUOTA_EXCEEDED, reason)
                writer.write(frame_text(response.to_json()))
                await writer.drain()
            else:
                self.n_connections += 1
                connection = _Connection(self, reader, writer)
                self._connections.add(connection)
                await connection.run()
        except Exception:
            pass  # one broken connection must never take down the listener
        finally:
            if connection is not None:
                self._connections.discard(connection)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _acquire_tenant_slot(self, tenant: str) -> None:
        """Wait for one of ``tenant``'s in-flight credits."""
        slot = self._tenant_slots.get(tenant)
        if slot is None:
            slot = self._tenant_slots[tenant] = _TenantSlot(
                self.limits.max_inflight_per_tenant
            )
        slot.users += 1
        try:
            await slot.credits.acquire()
        except asyncio.CancelledError:
            self._leave_tenant_slot(tenant, slot)
            raise

    def _release_tenant_slot(self, tenant: str) -> None:
        """Return one of ``tenant``'s credits once its response is queued."""
        slot = self._tenant_slots[tenant]
        slot.credits.release()
        self._leave_tenant_slot(tenant, slot)

    def _leave_tenant_slot(self, tenant: str, slot: "_TenantSlot") -> None:
        slot.users -= 1
        if slot.users == 0:
            del self._tenant_slots[tenant]

    def _dispatch_batch(self, payloads: List[Dict[str, Any]]) -> List[bytes]:
        """Executor-thread body: envelope dicts in, response frames out.

        Each response is encoded before the next envelope is dispatched,
        as :class:`StackService` requires; the event loop only writes.
        """
        handle_dict = self.service.handle_dict
        frame_response = _Connection._frame_response
        return [frame_response(handle_dict(payload)) for payload in payloads]


class _TenantSlot:
    """One tenant's in-flight credits and the requests holding or awaiting one."""

    __slots__ = ("credits", "users")

    def __init__(self, limit: int):
        self.credits = asyncio.Semaphore(limit)
        self.users = 0


class _Connection:
    """One pipelined request stream: reader → dispatcher → writer.

    Three coroutines per connection.  The reader parses frames and
    acquires in-flight credits (stalling is the backpressure); the
    dispatcher pulls adaptive batches through the server's executor; the
    writer serialises response frames onto the socket.  ``None`` is the
    end-of-stream sentinel on both internal queues.
    """

    def __init__(
        self,
        server: NetworkServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.done = asyncio.Event()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._write_queue: asyncio.Queue = asyncio.Queue()
        self._conn_slot = asyncio.Semaphore(
            server.limits.max_inflight_per_connection
        )
        self._read_task: Optional[asyncio.Task] = None

    def begin_drain(self) -> None:
        """Stop consuming frames; in-flight requests still complete."""
        if self._read_task is not None:
            self._read_task.cancel()

    async def run(self) -> None:
        self._read_task = asyncio.create_task(self._read_loop())
        dispatch_task = asyncio.create_task(self._dispatch_loop())
        write_task = asyncio.create_task(self._write_loop())
        try:
            try:
                await self._read_task
            except asyncio.CancelledError:
                if not self._read_task.cancelled():
                    raise  # *we* were cancelled (teardown), not the reader
                # else: drain cancelled the reader; flush what is queued
            await self._queue.put(None)
            await dispatch_task
            self._write_queue.put_nowait(None)
            await write_task
        finally:
            for task in (self._read_task, dispatch_task, write_task):
                if not task.done():
                    task.cancel()
            self.done.set()

    async def _read_loop(self) -> None:
        reader = self.reader
        server = self.server
        buffer = FrameBuffer(max_bytes=MAX_FRAME_BYTES)
        while True:
            try:
                data = await reader.read(65536)
            except (ConnectionError, OSError):
                break  # peer reset: nothing to answer
            if not data:
                break  # EOF; a partial frame left in the buffer was truncated
            try:
                frames = buffer.feed(data)
            except FrameTooLarge as error:
                # The declared length is hostile: there is no way to
                # resync the stream, so answer and stop reading.
                self._fail_local(ServiceErrorCode.BAD_REQUEST, str(error))
                break
            for frame in frames:
                try:
                    payload = decode_wire_line(
                        frame.decode("utf-8", errors="replace")
                    )
                except ServiceError as error:
                    # One malformed envelope; framing intact, stream lives.
                    self._fail_local(error.code, error.message)
                    continue
                tenant = tenant_of_envelope(payload)
                await self._conn_slot.acquire()
                await server._acquire_tenant_slot(tenant)
                await self._queue.put((payload, tenant))

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        server = self.server
        queue = self._queue
        batch_max = server.limits.dispatch_batch
        while True:
            item = await queue.get()
            if item is None:
                break
            batch = [item]
            stop = False
            while len(batch) < batch_max:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    stop = True
                    break
                batch.append(extra)
            payloads = [payload for payload, _ in batch]
            try:
                frames = await loop.run_in_executor(
                    server._executor, server._dispatch_batch, payloads
                )
            except Exception as error:  # handle_dict never raises; belt+braces
                failure = frame_text(
                    Response.failure(
                        ServiceErrorCode.INTERNAL,
                        f"dispatch failed: {type(error).__name__}: {error}",
                    ).to_json()
                )
                frames = [failure] * len(payloads)
            server.n_requests += len(payloads)
            for (payload, tenant), frame in zip(batch, frames):
                self._write_queue.put_nowait(frame)
                self._conn_slot.release()
                server._release_tenant_slot(tenant)
            if stop:
                break

    async def _write_loop(self) -> None:
        writer = self.writer
        queue = self._write_queue
        alive = True
        finished = False
        while not finished:
            frame = await queue.get()
            if frame is None:
                break
            frames = [frame]
            # Coalesce everything already queued into one write+drain.
            while True:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    finished = True
                    break
                frames.append(extra)
            if not alive:
                continue  # peer is gone; keep draining so dispatch finishes
            try:
                writer.write(b"".join(frames))
                await writer.drain()
            except (ConnectionError, OSError):
                # Mid-request disconnect: the service side of the work is
                # already done (and journaled); only the answer is lost.
                alive = False

    def _fail_local(self, code: ServiceErrorCode, message: str) -> None:
        """Queue a transport-level failure frame (request id unknowable)."""
        response = Response.failure(code, message)
        self._write_queue.put_nowait(frame_text(response.to_json()))

    @staticmethod
    def _frame_response(result: Dict[str, Any]) -> bytes:
        """One response frame from a ``handle_dict`` result."""
        try:
            return frame_text(encode_wire(result), max_bytes=MAX_RESPONSE_BYTES)
        except WIRE_ENCODE_ERRORS as error:  # FrameTooLarge is a ValueError
            return frame_text(not_wire_safe(result, error))
