"""``control_mix``: many tenants issuing mixed commands over sockets.

Loopback TCP to a ``python -m repro.netserver --workers 0 --journal-dir``
subprocess.  This process is the one client: it holds ``CONNECTIONS``
connections and runs ``CALLERS`` closed-loop virtual callers spread over
them.  Each caller stands for a tenant that waits for every reply (the
ask -> evaluate -> tell pattern), so the loop is closed with ``CALLERS``
callers.  A caller runs short-lived ``runtime`` sessions, each under a
fresh tenant name with a small tuner of ``BATCHES`` batches, so
per-record cost stays flat.  Reads (``service.ping``, ``power.read``,
``db.best_for``, ``db.top_k``, ``jobs.query``) run beside writes
(``tuning.tell``, ``jobs.submit``/``jobs.cancel``, and ``power.set_caps``
from a ``resource_manager`` session per connection).

Per-envelope cost dominates: framing, JSON decode/encode, envelope and
argument validation, the service lock and dispatch.

One unit is one ``SLICE_S`` slice of the load window, by reply time; the
first slice is a warm-up and is not reported.  The host-speed probes
(``common.HostSpeed``) run with no request in flight: the callers hold
their next request and the client waits for the replies still due, so
the server is idle while a probe runs and no round trip waits on one.
The traced run starts the server through ``traced_server.py``, which
wraps the layers before serving and writes their metrics at drain.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from common import (HERE, OUT, PROBE_EVERY_S, ROOT, SETUP_TRIALS, HostSpeed, Measurement,
                    Unit, env_with_src, pct, pooled)

CONNECTIONS = 2
CALLERS = 16
BATCHES = 3
BATCH = 8
N_NODES = 32
SPACE = {"x": list(range(32)), "y": [0.25 * i for i in range(16)]}
#: The load window is cut into units of this many seconds, by reply time.
SLICE_S = 1.0
READS = ("service.ping", "power.read", "db.best_for", "db.top_k", "jobs.query")
#: The traced server handles its own tracing (in the server process).
TRACES_ITSELF = True


class _Server:
    """One server subprocess, from spawn to drained exit."""

    def __init__(self, seed: int, trace_path: Optional[str] = None) -> None:
        os.makedirs(OUT, exist_ok=True)
        self.journal_dir = tempfile.mkdtemp(prefix="control_mix-", dir=OUT)
        args = ["--workers", "0", "--journal-dir", self.journal_dir,
                "--nodes", str(N_NODES), "--seed", str(seed)]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.netserver", *args]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_server.py"), trace_path, *args]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                     env=env_with_src(), cwd=ROOT)
        self.port = self._await_ready()

    def _await_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], deadline - time.monotonic())
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("READY "):
                return int(line.split()[2])
        self.kill()
        raise RuntimeError("server did not print READY")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> bool:
        """SIGTERM drain; True when the server exited 0 after printing DRAINED."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=120)
            return self.proc.returncode == 0 and "DRAINED" in out
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.journal_dir, ignore_errors=True)


class _Connection:
    """Pipelined framed-envelope connection with our own request ids."""

    def __init__(self, reader: Any, writer: Any, name: str) -> None:
        self.reader, self.writer, self.name = reader, writer, name
        self.pending: Dict[str, asyncio.Future] = {}
        self.sent = 0
        self.unmatched = 0
        self.task = asyncio.create_task(self._read())

    @classmethod
    async def open(cls, port: int, name: str) -> "_Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, name)

    async def _read(self) -> None:
        from repro.netserver.framing import MAX_RESPONSE_BYTES, read_frame

        try:
            while True:
                frame = await read_frame(self.reader, max_bytes=MAX_RESPONSE_BYTES)
                if frame is None:
                    break
                response = json.loads(frame)
                future = self.pending.pop(response.get("request_id"), None)
                if future is None:
                    self.unmatched += 1
                else:
                    future.set_result((response, time.perf_counter()))
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    async def call(self, op: str, session: Optional[str] = None, **args: Any) -> tuple:
        from repro.netserver.framing import frame_text
        from repro.service.envelopes import PROTOCOL_VERSION

        self.sent += 1
        request_id = f"{self.name}-{self.sent}"
        envelope = {"protocol": PROTOCOL_VERSION, "op": op, "args": args,
                    "request_id": request_id}
        if session is not None:
            envelope["session"] = session
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        data = frame_text(json.dumps(envelope))
        start = time.perf_counter()
        self.writer.write(data)
        await self.writer.drain()
        # Timed to the reply's arrival, not to when this caller resumes.
        response, arrived = await future
        elapsed = (arrived - start) * 1e6
        return response, elapsed, response.get("request_id") == request_id

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


async def _connect(port: int) -> tuple:
    """Open every connection and its resource_manager session."""
    connections = [await _Connection.open(port, f"c{i}") for i in range(CONNECTIONS)]
    managers = []
    for index, connection in enumerate(connections):
        response, _, _ = await connection.call(
            "session.open", tenant=f"site-rm{index}", role="resource_manager")
        managers.append(response["result"]["session"])
    return connections, managers


def setup_times(seed: int) -> List[float]:
    """Cold set-up: server spawn to READY, connections and operator sessions open."""
    times = []
    for _ in range(SETUP_TRIALS):
        speed = HostSpeed()
        start = time.perf_counter()
        server = _Server(seed)

        async def ready() -> None:
            connections, _ = await _connect(server.port)
            times.append(speed.finish(time.perf_counter() - start)[0])
            for connection in connections:
                await connection.close()

        try:
            asyncio.run(ready())
        finally:
            server.stop()
    return times


def _objective(config: Dict[str, Any], salt: int) -> float:
    return float((config["x"] - salt % 32) ** 2 + config["y"])


async def _drive(port: int, seed: int, seconds: float) -> Dict[str, Any]:
    connections, managers = await _connect(port)
    deadline = time.perf_counter() + seconds
    slices: List[Unit] = []
    speed = HostSpeed()
    current = {"start": time.perf_counter(), "completed": 0}
    stats: Dict[str, Any] = {"failed": 0, "mismatched": 0, "attempted": 0, "failures": {},
                             "raw_rt_us": 0.0}
    # Cleared while the client probes host speed: callers hold their next
    # request, so a probe never shares the vCPU with the server.
    gate = asyncio.Event()
    gate.set()

    async def call(connection: _Connection, op: str, session: Optional[str] = None,
                   **args: Any) -> Any:
        await gate.wait()
        response, elapsed, matched = await connection.call(op, session, **args)
        stats["attempted"] += 1
        stats["raw_rt_us"] += elapsed
        current["completed"] += 1
        speed.record("all", elapsed)
        speed.record("reads" if op in READS else "writes", elapsed)
        if not matched:
            stats["mismatched"] += 1
        if not response.get("ok"):
            stats["failed"] += 1
            code = response.get("error", {}).get("code", "?")
            stats["failures"][f"{op}:{code}"] = stats["failures"].get(f"{op}:{code}", 0) + 1
            return None
        return response["result"]

    async def caller(index: int) -> None:
        connection = connections[index % CONNECTIONS]
        manager = managers[index % CONNECTIONS]
        rng = random.Random(seed * 1009 + index)
        sessions = 0
        while time.perf_counter() < deadline:
            sessions += 1
            salt = rng.randrange(1 << 20)
            opened = await call(connection, "session.open",
                                tenant=f"t{index}-{sessions}", role="runtime")
            if opened is None:
                continue
            session = opened["session"]
            tuner = await call(connection, "tuning.open", session, parameters=SPACE,
                               search="random", batch_size=BATCH, seed=salt)
            node = f"sim-cluster/sim-cluster-{rng.randrange(N_NODES):04d}"
            for _ in range(BATCHES):
                if tuner is None:
                    break
                asked = await call(connection, "tuning.ask", session,
                                   tuner_id=tuner["tuner_id"])
                results = [{"config": c, "objective": _objective(c, salt)}
                           for c in (asked or {}).get("configs", [])]
                await call(connection, "tuning.tell", session,
                           tuner_id=tuner["tuner_id"], results=results)
                await call(connection, "service.ping", payload=sessions)
                await call(connection, "power.read", session, path=node, attr="power")
                await call(connection, "db.best_for", session)
                await call(connection, "db.top_k", session, k=5)
            job = await call(connection, "jobs.submit", session, app="stream",
                             nodes=rng.choice((1, 2)), walltime_s=600.0)
            if job is not None:
                await call(connection, "jobs.query", session, job_id=job["job_id"])
                await call(connection, "jobs.cancel", session, job_id=job["job_id"])
            indices = sorted(rng.sample(range(N_NODES), 4))
            await call(connection, "power.set_caps", manager, indices=indices,
                       watts=float(rng.randrange(200, 400)))
            if tuner is not None:
                await call(connection, "tuning.close", session, tuner_id=tuner["tuner_id"])
            await call(connection, "session.close", session)

    async def quiesce() -> None:
        """Hold the callers and wait until no request is in flight."""
        gate.clear()
        while True:
            waiting = [f for c in connections for f in c.pending.values()]
            if not waiting:
                return
            await asyncio.wait(waiting)

    async def prober() -> None:
        # Probes and slice boundaries run with nothing in flight.  The
        # probes' own time is taken out of the slice (HostSpeed.finish);
        # the wait for the replies still due is load and stays in.
        while True:
            await asyncio.sleep(PROBE_EVERY_S)
            await quiesce()
            try:
                now = time.perf_counter()
                if now >= deadline:
                    return
                if now - current["start"] < SLICE_S:
                    speed.probe()
                    continue
                wall, latencies = speed.finish(now - current["start"])
                slices.append(Unit(current["completed"], wall, latencies.pop("all", []),
                                   latencies))
                speed.start()
                current.update(start=time.perf_counter(), completed=0)
            finally:
                gate.set()

    await asyncio.gather(prober(), *(caller(i) for i in range(CALLERS)))
    stats["slices"] = slices[1:]  # the first slice is the warm-up
    stats["unmatched"] = sum(c.unmatched for c in connections)
    for connection in connections:
        await connection.close()
    return stats


def measure(seed: int, seconds: float, tracer: Any = None) -> Measurement:
    trace_path = None
    if tracer is not None:
        trace_path = os.path.join(OUT, f"server-trace-control_mix-seed{seed}.json")
    server = _Server(seed, trace_path)
    try:
        stats = asyncio.run(_drive(server.port, seed, seconds))
        rss = server.peak_rss_mb()
    finally:
        drained = server.stop()
    rate, completed, latencies, series = pooled(stats["slices"])
    checks = {
        "request_ids_match": stats["mismatched"] == 0 and stats["unmatched"] == 0,
        "server_exit_0_drained": drained,
        "no_failed_envelopes": stats["failed"] == 0,
    }
    if stats["failures"]:
        print("failures " + json.dumps(stats["failures"], sort_keys=True))
    layer_metrics: Dict[str, tuple] = {}
    if trace_path is not None:
        with open(trace_path, encoding="utf-8") as fh:
            traced = json.load(fh)
        layer_metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
        # Raw times on both sides: the server's spans are not normalised.
        server_us = traced["busy_s"] / max(1, traced["requests"]) * 1e6
        mean_rt = stats["raw_rt_us"] / max(1, stats["attempted"])
        layer_metrics["netserver.residual_us"] = (mean_rt - server_us, "us")
    reads, writes = series.get("reads", []), series.get("writes", [])
    return Measurement(
        latencies_us=latencies,
        rate=rate,
        completed=completed,
        units=len(stats["slices"]),
        attempted=stats["attempted"],
        failed=stats["failed"],
        checks=checks,
        named={
            "mix_env_per_s": (rate, "1/s", completed),
            "mix_p50_us": (pct(latencies, 50), "us", len(latencies)),
            "mix_p99_us": (pct(latencies, 99), "us", len(latencies)),
            "mix_read_p50_us": (pct(reads, 50), "us", len(reads)),
            "mix_write_p50_us": (pct(writes, 50), "us", len(writes)),
        },
        counts={"callers": CALLERS, "connections": CONNECTIONS},
        peak_rss_mb=rss,
        layer_metrics=layer_metrics,
    )
