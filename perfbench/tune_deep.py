"""``tune_deep``: an autotuning tenant whose tuner grows large.

One closed-loop caller drives ``StackService.handle_wire`` in-process for
a few tenants, each running one long ``tuning.open``/``ask``/``tell``
exchange (random search, batch 16) until its tuner holds thousands of
records.  Every ``tuning.tell`` is followed by the ``tuning.best`` and
``db.best_for`` reads a tuning client makes beside it.  The database has
a write-ahead journal attached (default ``batch`` fsync).

Per-record work dominates and grows with tuner size: the tell's
best-feasible recompute through ``ShardedPerformanceDatabase.where``, the
shard add and the journal append.  There is no transport.

One unit is one episode: a fresh service, journal and tenants, driven
for ``ROUNDS`` rounds.  Every episode of a run replays the same inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional

import numpy as np

from common import OUT, HostSpeed, Measurement, Unit, pct, pooled, run_units

TENANTS = 3
ROUNDS = 125
BATCH = 16
SPACE = {
    "x": list(range(128)),
    "y": [round(0.125 * i, 3) for i in range(64)],
    "z": [1, 2, 4, 8],
}


def objective(config: Dict[str, Any], salt: int) -> tuple:
    """The client-side evaluation: (objective, feasible).  Deterministic."""
    x, y, z = config["x"], config["y"], config["z"]
    value = (x - 37 - salt % 50) ** 2 + y * z + ((x * 7 + z + salt) % 11) * 0.5
    feasible = (x + salt) % 13 != 0
    return float(value), feasible


class _Client:
    """Closed-loop wire caller: builds envelopes, times only ``handle_wire``."""

    def __init__(self, service: Any) -> None:
        from repro.service.envelopes import PROTOCOL_VERSION

        self.protocol = PROTOCOL_VERSION
        self.service = service
        self.sent = 0
        self.failed = 0
        self._ids = 0

    def call(self, op: str, session: Optional[str] = None, **args: Any) -> tuple:
        self._ids += 1
        envelope = {"protocol": self.protocol, "op": op, "args": args,
                    "request_id": f"r{self._ids}"}
        if session is not None:
            envelope["session"] = session
        line = json.dumps(envelope)
        start = time.perf_counter()
        reply = self.service.handle_wire(line)
        elapsed = time.perf_counter() - start
        response = json.loads(reply)
        self.sent += 1
        if not response.get("ok") or response.get("request_id") != envelope["request_id"]:
            self.failed += 1
        return response.get("result"), elapsed * 1e6


def _tenant_seed(seed: int, tenant: int) -> int:
    return int(np.random.SeedSequence([seed, tenant]).generate_state(1)[0] % (2**31 - 1))


def build(seed: int, directory: str) -> tuple:
    """A journaled service with every tenant's session and tuner open."""
    from repro.durability import attach
    from repro.service.service import StackService

    service = StackService(n_nodes=8, seed=seed, n_shards=4)
    journal = attach(service.database, directory)
    client = _Client(service)
    tenants = []
    for index in range(TENANTS):
        info, _ = client.call("session.open", tenant=f"tenant{index}", role="runtime")
        opened, _ = client.call(
            "tuning.open", session=info["session"], parameters=SPACE,
            search="random", batch_size=BATCH, seed=_tenant_seed(seed, index),
        )
        tenants.append({"session": info["session"], "tuner": opened["tuner_id"],
                        "salt": seed + index, "told": 0, "best": None})
    return service, journal, client, tenants


def probe(seed: int) -> None:
    os.makedirs(OUT, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="probe-tune_deep-", dir=OUT)
    try:
        build(seed, directory)[1].close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure(seed: int, seconds: float, tracer: Any = None) -> Measurement:
    os.makedirs(OUT, exist_ok=True)
    units: List[Unit] = []
    speed = HostSpeed()
    totals = {"sent": 0, "failed": 0}
    checks: Dict[str, bool] = {"no_failed_envelopes": True}

    def episode(index: int) -> None:
        directory = tempfile.mkdtemp(prefix="tune_deep-", dir=OUT)
        try:
            service, journal, client, tenants = build(seed, directory)
            sent_evals = 0
            speed.start()
            start = time.perf_counter()
            for _ in range(ROUNDS):
                speed.probe()
                for tenant in tenants:
                    session, tuner = tenant["session"], tenant["tuner"]
                    asked, _ = client.call("tuning.ask", session=session, tuner_id=tuner)
                    results = []
                    for config in asked["configs"]:
                        value, feasible = objective(config, tenant["salt"])
                        results.append({"config": config, "objective": value,
                                        "feasible": feasible,
                                        "metrics": {"runtime_s": 1.0 + config["x"]}})
                        if feasible and (tenant["best"] is None or value < tenant["best"][0]):
                            tenant["best"] = (value, config)
                    told, elapsed = client.call(
                        "tuning.tell", session=session, tuner_id=tuner, results=results)
                    speed.record("tell", elapsed)
                    sent_evals += len(results)
                    tenant["told"] = told["told_total"]
                    _, elapsed = client.call("tuning.best", session=session, tuner_id=tuner)
                    speed.record("best", elapsed)
                    _, elapsed = client.call("db.best_for", session=session)
                    speed.record("best_for", elapsed)
            wall, latencies = speed.finish(time.perf_counter() - start)
            totals["sent"] += client.sent
            totals["failed"] += client.failed
            checks["no_failed_envelopes"] &= client.failed == 0
            journal.sync()
            if index > 0:
                units.append(Unit(sent_evals, wall, latencies.pop("tell"), latencies))
            elif tracer is None:
                # The full checks call the traced layers: untraced runs make them.
                checks.update(_check(service, client, tenants, sent_evals, directory))
            journal.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    run_units(seconds, episode)
    rate, completed, tells, reads = pooled(units)
    return Measurement(
        latencies_us=tells,
        rate=rate,
        completed=completed,
        units=len(units),
        attempted=totals["sent"],
        failed=totals["failed"],
        checks=checks,
        named={
            "tune_evals_per_s": (rate, "1/s", completed),
            "tell_p50_us": (pct(tells, 50), "us", len(tells)),
            "tell_p99_us": (pct(tells, 99), "us", len(tells)),
            "best_p50_us": (pct(reads["best"], 50), "us", len(reads["best"])),
            "best_for_p50_us": (pct(reads["best_for"], 50), "us", len(reads["best_for"])),
        },
        counts={"records_per_tuner": float(ROUNDS * BATCH)},
    )


def _check(service: Any, client: _Client, tenants: List[dict], sent: int,
           directory: str) -> Dict[str, bool]:
    """Output checks on one episode (untimed)."""
    from repro.durability import recover

    checks = {"told_equals_sent": sum(t["told"] for t in tenants) == sent}
    best_ok = True
    for tenant in tenants:
        result, _ = client.call("tuning.best", session=tenant["session"],
                                tuner_id=tenant["tuner"])
        best = result["best"]
        expected = tenant["best"]
        if best is None or expected is None or best["objective"] != expected[0] \
                or best["config"] != expected[1]:
            best_ok = False
    checks["best_equals_client_minimum"] = best_ok
    database = service.database
    merged = database.merged("merged-reference")
    checks["sharded_equals_merged"] = (
        all(database.best_for(tenant=f"tenant{i}") == merged.best_for(tenant=f"tenant{i}")
            for i in range(TENANTS))
        and database.top_k(25) == merged.top_k(25)
        and database.aggregate(feasible_only=True) == merged.aggregate(feasible_only=True)
        and len(database) == len(merged) == sent
    )
    recovered = recover(directory, reattach=False)
    checks["journal_recovers_every_record"] = (
        len(recovered) == sent
        and [r.to_dict() for r in recovered] == [r.to_dict() for r in database]
    )
    return checks
