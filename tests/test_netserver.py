"""Endpoint conformance battery for the framed-envelope TCP transport.

Everything here runs over a *real* socket (loopback, ephemeral ports):
per-command happy paths, malformed/truncated/oversized frames, protocol
major mismatch, mid-request disconnect, concurrent-tenant isolation,
pipelined correlation, backpressure limits, graceful drain, and — for
the multi-worker tier — tenant-affine routing with out-of-order
completion and journal-recoverable worker state.

No pytest-asyncio: each test drives its scenario with ``asyncio.run``
inside a plain function, bounded by a watchdog timeout so a wedged
server fails the test instead of hanging the suite.
"""

import asyncio
import json
import threading

import pytest

from repro.netserver import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    MAX_RESPONSE_BYTES,
    AsyncServiceClient,
    FrameBuffer,
    FrameTooLarge,
    NetworkServer,
    NetworkServiceClient,
    RouterServer,
    ServerLimits,
    WorkerFleet,
    encode_frame,
    frame_text,
    read_frame,
    worker_for_tenant,
)
from repro.netserver.server import _Connection
from repro.service import MAX_WIRE_BYTES, StackService
from repro.service.client import ServiceCallError, SessionHandle
from repro.service.envelopes import Response
from repro.sim.rng import stable_name_key
from repro.telemetry import ShardedPerformanceDatabase

TIMEOUT = 90.0


def run_async(coro):
    """Drive one async scenario to completion with a watchdog."""
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


async def started_server(**kwargs):
    """A listening NetworkServer over a small fresh service."""
    service = StackService(n_nodes=4, seed=0)
    server = NetworkServer(service, **kwargs)
    await server.start()
    return server


def tenant_on_worker(worker: int, n_workers: int) -> str:
    """A deterministic tenant name that routes to the given worker."""
    for i in range(1000):
        name = f"tenant{i}"
        if worker_for_tenant(name, n_workers) == worker:
            return name
    raise AssertionError("no tenant found for worker")


# ---------------------------------------------------------------------------
# Framing unit behaviour
# ---------------------------------------------------------------------------
def test_frame_round_trip_and_chunked_reassembly():
    payloads = [b"{}", b"x" * 1000, b""]
    stream = b"".join(encode_frame(p) for p in payloads)
    buffer = FrameBuffer()
    out = []
    for i in range(0, len(stream), 7):  # drip-feed in awkward chunks
        out.extend(buffer.feed(stream[i : i + 7]))
    assert out == payloads
    assert len(buffer) == 0


def test_frame_buffer_rejects_oversized_header():
    buffer = FrameBuffer()
    with pytest.raises(FrameTooLarge):
        buffer.feed(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
    with pytest.raises(FrameTooLarge):
        encode_frame(b"x" * (MAX_FRAME_BYTES + 1))


def test_limits_are_one_constant_across_transports():
    # Satellite: the stdin REPL cap, the frame cap and the envelope cap
    # are literally the same object.
    assert MAX_FRAME_BYTES is MAX_WIRE_BYTES
    assert StackService.MAX_REQUEST_BYTES is MAX_WIRE_BYTES
    assert MAX_RESPONSE_BYTES > MAX_FRAME_BYTES


def test_stdin_driver_shares_the_oversize_path():
    service = StackService(n_nodes=4, seed=0)
    line = json.dumps({"op": "service.ping", "args": {"pad": "x" * MAX_WIRE_BYTES}})
    response = Response.from_json(service.handle_wire(line))
    assert not response.ok
    assert response.error_code == "SVC_RET_BAD_REQUEST"
    assert str(MAX_WIRE_BYTES) in response.error["message"]


# ---------------------------------------------------------------------------
# Happy paths over a real socket
# ---------------------------------------------------------------------------
def test_per_command_happy_path_over_socket():
    async def scenario():
        server = await started_server()
        async with await AsyncServiceClient.connect(server.host, server.port) as client:
            pong = await client.result("service.ping")
            assert pong["pong"] is True
            described = await client.result("service.describe")
            assert any(cmd["op"] == "tuning.run" for cmd in described["commands"])
            session = await client.open_session("acme", role="resource_manager")
            info = await session.result("session.info")
            assert info["tenant"] == "acme"
            tuner = await session.result(
                "tuning.open", parameters={"x": [1, 2, 3]}, search="random"
            )
            batch = await session.result("tuning.ask", tuner_id=tuner["tuner_id"])
            told = await session.result(
                "tuning.tell",
                tuner_id=tuner["tuner_id"],
                results=[
                    {"config": config, "objective": float(i)}
                    for i, config in enumerate(batch["configs"])
                ],
            )
            assert told["recorded"] == len(batch["configs"])
            stats = await session.result("db.stats")
            assert stats["n_records"] == len(batch["configs"])
            best = await session.result("db.best_for", minimize=True)
            assert best["best"]["objective"] == 0.0
            await session.close()
        await server.drain()
        assert server.n_requests >= 8

    run_async(scenario())


def test_campaign_runs_over_the_socket():
    async def scenario():
        server = await started_server()
        async with await AsyncServiceClient.connect(server.host, server.port) as client:
            session = await client.open_session("acme", role="resource_manager")
            summary = await session.result(
                "campaign.run", scenarios=[{"use_case": "uc6"}]
            )
            assert summary["n_runs"] >= 1
            stats = await session.result("db.stats")
            assert stats["n_records"] >= summary["n_runs"]
        await server.drain()

    run_async(scenario())


def test_pipelined_calls_correlate_by_request_id():
    async def scenario():
        server = await started_server()
        async with await AsyncServiceClient.connect(server.host, server.port) as client:
            responses = await asyncio.gather(
                *(client.call("service.ping", payload=i) for i in range(64))
            )
            assert all(response.ok for response in responses)
            assert len({response.request_id for response in responses}) == 64
            # each response answers *its* request, not just any request
            for i, response in enumerate(responses):
                assert response.result["payload"] == i
        await server.drain()

    run_async(scenario())


def test_sync_wrapper_is_serviceclient_compatible():
    # The server must outlive any single asyncio.run() call, so it lives
    # on its own background loop while the sync wrapper talks to it.
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = asyncio.run_coroutine_threadsafe(started_server(), loop).result(30)
    try:
        client = NetworkServiceClient(server.host, server.port)
        try:
            assert client.result("service.ping")["pong"] is True
            session = client.open_session("acme", role="resource_manager")
            assert isinstance(session, SessionHandle)  # in-process handle, reused
            assert session.result("session.info")["tenant"] == "acme"
            with pytest.raises(ServiceCallError):
                client.result("service.nope")
            session.close()
        finally:
            client.close()
    finally:
        asyncio.run_coroutine_threadsafe(server.drain(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


# ---------------------------------------------------------------------------
# Hostile input
# ---------------------------------------------------------------------------
def test_malformed_frame_answers_bad_request_and_stream_survives():
    async def scenario():
        server = await started_server()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(encode_frame(b"this is not json"))
        await writer.drain()
        frame = await read_frame(reader, max_bytes=MAX_RESPONSE_BYTES)
        response = Response.from_json(frame.decode())
        assert not response.ok and response.error_code == "SVC_RET_BAD_REQUEST"
        # framing intact: the same connection still serves real requests
        writer.write(frame_text(json.dumps({"op": "service.ping"})))
        await writer.drain()
        frame = await read_frame(reader, max_bytes=MAX_RESPONSE_BYTES)
        assert Response.from_json(frame.decode()).ok
        writer.close()
        await server.drain()

    run_async(scenario())


def test_oversized_frame_answers_bad_request_then_closes():
    async def scenario():
        server = await started_server()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
        await writer.drain()
        frame = await read_frame(reader, max_bytes=MAX_RESPONSE_BYTES)
        response = Response.from_json(frame.decode())
        assert not response.ok and response.error_code == "SVC_RET_BAD_REQUEST"
        assert "wire limit" in response.error["message"]
        assert await reader.read() == b""  # server closed: stream unrecoverable
        writer.close()
        await server.drain()

    run_async(scenario())


def test_unserialisable_response_fallback_keeps_request_id():
    # A pipelined client waits on exactly its request id, so the failure
    # that replaces an unencodable answer must carry it: for a value of no
    # JSON type and for one that contains itself, on the caller's thread
    # and on a dispatch thread like a worker's.
    looped = {"x": 1}
    looped["self"] = looped

    def answer(result):
        frame = _Connection._frame_response(
            {"ok": True, "request_id": "r7", "session": "s0001-acme", "result": result}
        )
        (payload,) = FrameBuffer().feed(frame)
        return Response.from_json(payload.decode())

    answers = [answer(object()), answer(looped)]
    thread = threading.Thread(target=lambda: answers.append(answer(looped)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive() and len(answers) == 3
    for response in answers:
        assert not response.ok and response.error_code == "SVC_RET_INTERNAL"
        assert response.request_id == "r7" and response.session == "s0001-acme"


def test_truncated_frame_and_midrequest_disconnect_leave_server_alive():
    async def scenario():
        server = await started_server()
        # connection 1: declare 100 bytes, send 10, vanish
        _, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(FRAME_HEADER.pack(100) + b"x" * 10)
        await writer.drain()
        writer.close()
        # connection 2: send a full request and disconnect before reading
        _, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(frame_text(json.dumps({"op": "service.ping"})))
        await writer.drain()
        writer.close()
        # the server survives both and serves the next client normally
        async with await AsyncServiceClient.connect(server.host, server.port) as client:
            assert (await client.result("service.ping"))["pong"] is True
        await server.drain()

    run_async(scenario())


def test_protocol_major_mismatch_is_refused():
    async def scenario():
        server = await started_server()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        envelope = {"protocol": "2.0", "op": "service.ping", "request_id": "r9"}
        writer.write(frame_text(json.dumps(envelope)))
        await writer.drain()
        frame = await read_frame(reader, max_bytes=MAX_RESPONSE_BYTES)
        response = Response.from_json(frame.decode())
        assert not response.ok
        assert response.error_code == "SVC_RET_UNSUPPORTED_PROTOCOL"
        assert response.request_id == "r9"  # still correlated
        writer.close()
        await server.drain()

    run_async(scenario())


def test_connection_limit_refuses_with_structured_frame():
    async def scenario():
        server = await started_server(limits=ServerLimits(max_connections=1))
        async with await AsyncServiceClient.connect(server.host, server.port) as client:
            assert (await client.result("service.ping"))["pong"] is True
            reader, writer = await asyncio.open_connection(server.host, server.port)
            frame = await read_frame(reader, max_bytes=MAX_RESPONSE_BYTES)
            response = Response.from_json(frame.decode())
            assert response.error_code == "SVC_RET_QUOTA_EXCEEDED"
            assert server.n_refused == 1
            writer.close()
        await server.drain()

    run_async(scenario())


# ---------------------------------------------------------------------------
# Tenant isolation + backpressure
# ---------------------------------------------------------------------------
def test_concurrent_tenants_are_isolated():
    async def scenario():
        server = await started_server()
        client_a = await AsyncServiceClient.connect(server.host, server.port)
        client_b = await AsyncServiceClient.connect(server.host, server.port)
        session_a = await client_a.open_session("acme", role="resource_manager")
        session_b = await client_b.open_session("rival", role="resource_manager")
        await session_a.result(
            "tuning.run", parameters={"x": [1, 2]}, evaluator="quadratic", max_evals=2
        )
        # B's database view never contains A's records...
        stats_b = await session_b.result("db.stats")
        assert stats_b["n_records"] == 0
        assert "acme" not in stats_b["tenants"]
        # ...and B cannot speak with A's session id.
        stolen = await client_b.call("session.info", session=session_a.session_id)
        assert stolen.ok  # same service: session ids are capabilities per se,
        # but a *made up* session is structurally refused:
        response = await client_b.call("session.info", session="s9999-ghost")
        assert response.error_code == "SVC_RET_NO_SESSION"
        await client_a.close()
        await client_b.close()
        await server.drain()

    run_async(scenario())


def test_per_connection_inflight_cap_backpressures_not_errors():
    async def scenario():
        server = await started_server(
            limits=ServerLimits(max_inflight_per_connection=4, dispatch_batch=2)
        )
        async with await AsyncServiceClient.connect(server.host, server.port) as client:
            responses = await asyncio.gather(
                *(client.call("service.ping", payload=i) for i in range(40))
            )
            assert all(response.ok for response in responses)
        await server.drain()

    run_async(scenario())


def test_tenant_credits_are_forgotten_once_a_tenant_goes_quiet():
    async def scenario():
        server = await started_server()
        async with await AsyncServiceClient.connect(server.host, server.port) as client:
            for i in range(12):
                session = await client.open_session(f"short{i}", role="runtime")
                assert (await session.result("session.info"))["tenant"] == f"short{i}"
                await session.close()
            assert (await client.result("service.ping"))["pong"] is True
            assert server._tenant_slots == {}
        await server.drain()

    run_async(scenario())


def test_per_tenant_inflight_cap_stalls_a_flood_across_connections():
    cap = 3
    gate = threading.Event()

    async def scenario():
        server = await started_server(
            limits=ServerLimits(max_inflight_per_tenant=cap, max_inflight_per_connection=64)
        )
        handle_dict = server.service.handle_dict

        def gated(payload):
            gate.wait(TIMEOUT)
            return handle_dict(payload)

        opener = await AsyncServiceClient.connect(server.host, server.port)
        session = await opener.open_session("flood", role="runtime")
        server.service.handle_dict = gated
        clients = [await AsyncServiceClient.connect(server.host, server.port)
                   for _ in range(2)]
        calls = [
            asyncio.create_task(
                client.call("session.info", session=session.session_id)
            )
            for client in clients
            for _ in range(8)
        ]
        for _ in range(200):  # until both readers stall on a credit
            await asyncio.sleep(0.01)
            slot = server._tenant_slots.get("flood")
            if slot is not None and slot.users == cap + len(clients):
                break
        await asyncio.sleep(0.1)
        # cap requests hold credits; each connection's reader waits on the
        # next one and reads nothing more, whatever its own cap allows
        slot = server._tenant_slots["flood"]
        assert slot.users == cap + len(clients)
        assert slot.credits.locked()
        assert not any(call.done() for call in calls)
        gate.set()
        responses = await asyncio.gather(*calls)
        assert all(response.ok for response in responses)
        assert server._tenant_slots == {}
        for client in (opener, *clients):
            await client.close()
        await server.drain()

    try:
        run_async(scenario())
    finally:
        gate.set()


def test_drain_finishes_inflight_work_and_checkpoints(tmp_path):
    async def scenario():
        service = StackService(n_nodes=4, seed=0)
        server = NetworkServer(service, journal_dir=str(tmp_path))
        await server.start()
        client = await AsyncServiceClient.connect(server.host, server.port)
        session = await client.open_session("acme", role="resource_manager")
        pending = [
            asyncio.create_task(
                session.result(
                    "tuning.run",
                    parameters={"x": [1, 2, 3]},
                    evaluator="quadratic",
                    max_evals=3,
                )
            ),
            *(asyncio.create_task(client.call("service.ping")) for _ in range(10)),
        ]
        await asyncio.sleep(0.05)  # let frames reach the server
        await server.drain()  # SIGTERM path: finish in-flight, flush, checkpoint
        done = await asyncio.gather(*pending, return_exceptions=True)
        answered = [
            item
            for item in done
            if not isinstance(item, BaseException)
            and (not isinstance(item, Response) or item.ok)
        ]
        assert answered  # queued work was completed and flushed, not dropped
        await client.close()
        return len(service.database)

    n_records = run_async(scenario())
    assert n_records >= 1
    recovered = ShardedPerformanceDatabase.recover(str(tmp_path))
    recovered.journal.close()
    assert len(recovered) == n_records


def test_drain_closes_only_the_journal_it_attached(tmp_path):
    from repro.durability import attach

    async def serve_and_drain(service, journal_dir):
        server = NetworkServer(service, journal_dir=journal_dir)
        await server.start()
        async with await AsyncServiceClient.connect(server.host, server.port) as client:
            assert (await client.result("service.ping"))["pong"] is True
        await server.drain()

    served = StackService(n_nodes=4, seed=0)
    run_async(serve_and_drain(served, str(tmp_path / "server")))
    assert not served.database.journal.enabled  # start() attached it
    owned = StackService(n_nodes=4, seed=0)
    journal = attach(owned.database, str(tmp_path / "caller"))
    run_async(serve_and_drain(owned, str(tmp_path / "caller")))
    assert journal.enabled  # the caller attached it, so the caller closes it
    journal.close()


# ---------------------------------------------------------------------------
# Multi-worker tier
# ---------------------------------------------------------------------------
def test_fleet_routes_by_stable_hash_out_of_order_and_recovers(tmp_path):
    n_workers = 2
    tenant_slow = tenant_on_worker(0, n_workers)
    tenant_fast = tenant_on_worker(1, n_workers)
    assert worker_for_tenant(tenant_slow, n_workers) == stable_name_key(
        tenant_slow
    ) % n_workers

    async def scenario(fleet):
        addrs = await asyncio.get_running_loop().run_in_executor(None, fleet.start)
        router = RouterServer(addrs)
        await router.start()
        client = await AsyncServiceClient.connect(router.host, router.port)
        slow = await client.open_session(tenant_slow, role="resource_manager")
        fast = await client.open_session(tenant_fast, role="resource_manager")
        # one pipelined connection, two workers: the slow tenant's batch
        # run lands on worker 0 while worker 1 answers the fast tenant's
        # ping first — genuine out-of-order completion on one stream.
        slow_task = asyncio.create_task(
            slow.result(
                "tuning.run",
                parameters={"x": [1, 2, 3, 4, 5], "y": [1, 2, 3, 4, 5]},
                evaluator="quadratic",
                max_evals=25,
            )
        )
        await asyncio.sleep(0)
        pong = await fast.result("service.ping")
        out_of_order = not slow_task.done()
        assert pong["pong"] is True
        summary = await slow_task
        assert summary["evaluations"] >= 1
        stats_slow = await slow.result("db.stats")
        assert stats_slow["n_records"] == summary["evaluations"]
        # shared-nothing: the fast worker's DB never saw the slow tenant
        stats_fast = await fast.result("db.stats")
        assert stats_fast["n_records"] == 0
        await client.close()
        await router.drain()
        await asyncio.get_running_loop().run_in_executor(None, fleet.stop)
        return out_of_order, summary["evaluations"]

    fleet = WorkerFleet(
        n_workers, n_nodes=4, seed=0, journal_dir=str(tmp_path)
    )
    try:
        out_of_order, n_evals = run_async(scenario(fleet))
    finally:
        fleet.stop()
    assert out_of_order
    # per-worker crash-safe state: worker 0 journaled every evaluation
    recovered = ShardedPerformanceDatabase.recover(fleet.worker_journal_dir(0))
    recovered.journal.close()
    assert len(recovered) == n_evals
    merged = recovered.merged()
    assert recovered.best_for(minimize=True) == merged.best_for(minimize=True)


def test_fleet_survives_sigkill_via_journal(tmp_path):
    n_workers = 2
    tenant = tenant_on_worker(0, n_workers)

    async def scenario(fleet):
        addrs = await asyncio.get_running_loop().run_in_executor(None, fleet.start)
        router = RouterServer(addrs)
        await router.start()
        client = await AsyncServiceClient.connect(router.host, router.port)
        session = await client.open_session(tenant, role="resource_manager")
        summary = await session.result(
            "tuning.run", parameters={"x": [1, 2, 3]}, evaluator="quadratic",
            max_evals=3,
        )
        await client.close()
        await router.drain()
        # hard SIGKILL — no drain, no checkpoint: the write-ahead journal
        # alone must carry the state
        await asyncio.get_running_loop().run_in_executor(None, fleet.kill)
        return summary["evaluations"]

    fleet = WorkerFleet(n_workers, n_nodes=4, seed=0, journal_dir=str(tmp_path))
    try:
        n_evals = run_async(scenario(fleet))
    finally:
        fleet.stop()
    recovered = ShardedPerformanceDatabase.recover(fleet.worker_journal_dir(0))
    recovered.journal.close()
    assert len(recovered) == n_evals >= 1
