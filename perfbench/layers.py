"""Where each layer of the stack is timed, and the per-layer metrics.

:func:`install` wraps the public entry points of every layer (see
``layer_map.json`` for which end-to-end metrics each layer should move,
on which workload).  Nothing under ``src/`` is edited: the wrappers replace module
attributes, class attributes or instance attributes at run time.

Span names are ``<layer>.<what>``; a layer's self time is the summed self
time of its spans.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

import numpy as np

from tracing import TimedLock, Tracer, wrap, wrap_generator

#: Layers in the order the traced run reports their self time.
LAYERS = (
    "netserver", "service", "telemetry", "durability", "core", "powerapi",
    "hardware", "resource_manager", "sim", "apps", "runtime", "experiments",
    "workloads",
)

#: Service commands the control-plane workloads issue.
OPS = (
    "session.open", "session.close", "tuning.open", "tuning.ask", "tuning.tell",
    "tuning.best", "tuning.close", "service.ping", "power.read", "power.set_caps",
    "db.best_for", "db.top_k", "jobs.submit", "jobs.query", "jobs.cancel",
)
#: Commands whose tail latency is reported as well.
TAIL_OPS = ("tuning.tell", "db.top_k", "jobs.submit", "power.set_caps")

USE_CASES = ("uc1", "uc2", "uc3", "uc4", "uc5", "uc6", "uc7")


def _op_name(service: Any, request: Any) -> str:
    return f"service.op.{request.op}"


def _uc_name(payload: Any) -> str:
    return f"experiments.uc.{payload['use_case']}"


def _subclasses(root: type) -> Iterable[type]:
    seen = [root]
    for cls in seen:
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""
    import repro.core.search  # noqa: F401  (registers the concrete searches)
    import repro.core.usecases  # noqa: F401  (imports every runtime class)
    import repro.experiments.campaign as campaign
    import repro.netserver.server as netserver
    import repro.service.service as service
    import repro.workloads.synth as synth
    from repro.apps.mpi import MpiJobSimulator
    from repro.core.search.base import SearchAlgorithm
    from repro.core.tuner import Autotuner, BatchAutotuner
    from repro.durability.checkpoint import DatabaseJournal
    from repro.durability.journal import JournalSegment
    from repro.hardware.cluster import Cluster
    from repro.hardware.state import ClusterState
    from repro.hardware.thermal import ThermalModel
    from repro.netserver.framing import FrameBuffer
    from repro.powerapi.context import PowerApiContext
    from repro.resource_manager.slurm import NodeAvailabilityProfile, PowerAwareScheduler
    from repro.runtime.base import JobRuntime
    from repro.service.envelopes import Response
    from repro.sim.engine import Environment
    from repro.telemetry.database import PerformanceDatabase
    from repro.telemetry.sharding import ShardedPerformanceDatabase

    count, sample = tracer.count, tracer.sample

    # netserver: framing and the server-side response encode.
    wrap(tracer, FrameBuffer, "feed", "netserver.feed",
         after=lambda frames, args: count("netserver.frames", len(frames)))
    wrap(tracer, netserver, "frame_text", "netserver.frame_encode")
    wrap(tracer, netserver, "decode_wire_line", "service.decode")
    wrap(tracer, netserver._Connection, "_frame_response", "service.encode")

    # service: wire decode, envelope, dispatch per op, encode, lock wait.
    wrap(tracer, service, "parse_wire_request", "service.decode")
    wrap(tracer, service.StackService, "handle_wire", "service.wire")
    wrap(tracer, service.StackService, "handle_dict", "service.handle_dict")
    wrap(tracer, service.StackService, "handle", _op_name)
    wrap(tracer, Response, "to_json", "service.encode")
    init = service.StackService.__init__

    def traced_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        self._lock = TimedLock(self._lock, tracer, "service.lock_wait")

    service.StackService.__init__ = traced_init

    # telemetry: the sharded database's writes and fan-in queries.
    wrap(tracer, ShardedPerformanceDatabase, "add", "telemetry.add")
    wrap(tracer, ShardedPerformanceDatabase, "where", "telemetry.where",
         after=lambda rows, args: sample("telemetry.where_rows", len(rows)))
    wrap(tracer, ShardedPerformanceDatabase, "best_for", "telemetry.best_for")
    wrap(tracer, ShardedPerformanceDatabase, "top_k", "telemetry.top_k")
    wrap(tracer, PerformanceDatabase, "top_k", "telemetry.top_k")

    # durability: the write-ahead append and the bytes it writes.
    wrap(tracer, DatabaseJournal, "append_record", "durability.append",
         after=lambda result, args: count("durability.records"))
    segment_append = JournalSegment.append

    def counted_append(self: Any, payload: bytes) -> None:
        count("durability.bytes", len(payload))
        segment_append(self, payload)

    JournalSegment.append = counted_append

    # core: the concrete search classes and the batched tuner.
    for cls in _subclasses(SearchAlgorithm):
        if "ask_batch" in cls.__dict__:
            wrap(tracer, cls, "ask_batch", "core.ask_batch")
        if "ask" in cls.__dict__:
            wrap(tracer, cls, "ask", "core.ask")
        if "tell" in cls.__dict__:
            wrap(tracer, cls, "tell", "core.search_tell")

    def tuned(result: Any, args: Any) -> None:
        count("core.evaluations", result.evaluations)
        count("core.cache_hits", result.cache_hits)
        count("core.cache_lookups", result.cache_hits + result.cache_misses)

    # CoTuner drives BatchAutotuner for batched searches and Autotuner otherwise.
    wrap(tracer, Autotuner, "run", "core.tuner_run", after=tuned)
    wrap(tracer, BatchAutotuner, "run", "core.tuner_run", after=tuned)

    # powerapi
    wrap(tracer, PowerApiContext, "read", "powerapi.read")

    # hardware: caps, monitor sampling, allocation, ranking, thermal steps.
    wrap(tracer, Cluster, "apply_power_caps", "hardware.apply_power_caps")
    wrap(tracer, Cluster, "instantaneous_power_w", "hardware.power_sample")
    wrap(tracer, Cluster, "allocate_nodes", "hardware.allocate")
    wrap(tracer, Cluster, "release_nodes", "hardware.release")
    wrap(tracer, Cluster, "rank_free_by_efficiency", "hardware.rank_free")
    wrap(tracer, Cluster, "rank_free_by_temperature", "hardware.rank_free")
    wrap(tracer, ThermalModel, "advance", "hardware.thermal")
    wrap(tracer, ClusterState, "advance_thermal", "hardware.thermal")

    # resource_manager: passes (queue depth at entry), plans, reservations.
    wrap(tracer, PowerAwareScheduler, "_schedule", "resource_manager.pass",
         before=lambda args, kwargs: sample(
             "resource_manager.queue_depth", len(args[0].queue)))
    wrap(tracer, PowerAwareScheduler, "_plan_launch", "resource_manager.plan",
         after=lambda plan, args: count("resource_manager.launchable", plan is not None))
    wrap(tracer, PowerAwareScheduler, "submit", "resource_manager.submit")
    wrap(tracer, NodeAvailabilityProfile, "earliest_start", "resource_manager.reservation")

    # sim: the event loop.
    wrap(tracer, Environment, "step", "sim.step")
    wrap(tracer, Environment, "run", "sim.run")

    # apps / runtime / experiments / workloads
    wrap_generator(tracer, MpiJobSimulator, "run", "apps.sim")
    sim_init = MpiJobSimulator.__init__

    def counted_init(self: Any, *args: Any, **kwargs: Any) -> None:
        count("apps.jobs")
        sim_init(self, *args, **kwargs)

    MpiJobSimulator.__init__ = counted_init
    for cls in _subclasses(JobRuntime):
        if "distribute_budget" in cls.__dict__:
            wrap(tracer, cls, "distribute_budget", "runtime.distribute")
    wrap(tracer, campaign, "_execute_run", _uc_name)
    wrap(tracer, synth, "synthesize_replay_trace", "workloads.synth")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def _matching(table: Dict[str, np.ndarray], prefix: str) -> np.ndarray:
    parts = [values for name, values in table.items()
             if name == prefix or name.startswith(prefix + ".")]
    return np.concatenate(parts) if parts else np.zeros(0)


def _pct_us(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e6 if values.size else 0.0


def per_layer_metrics(
    merged: Dict[str, Any], units: float, wall_s: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric from one traced phase.

    Counts and summed times are per workload unit (one episode, drain or
    campaign, the warm-up included), so they repeat exactly however many
    units a run fits.  ``wall_s`` is the traced window (first span start
    to last span end), for the residual.
    """
    durations, selfs = merged["durations"], merged["selfs"]
    counters, samples = merged["counters"], merged["samples"]
    empty = np.zeros(0)

    def dur(prefix: str) -> np.ndarray:
        return _matching(durations, prefix)

    def own(prefix: str) -> np.ndarray:
        return _matching(selfs, prefix)

    def per_unit(value: float) -> float:
        return value / units if units else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, Tuple[float, str]] = {}
    feeds = dur("netserver.feed")
    out["netserver.feed_us.p50"] = (_pct_us(feeds, 50), "us")
    out["netserver.feed_us.p99"] = (_pct_us(feeds, 99), "us")
    out["netserver.frames_per_feed"] = (
        ratio(counters.get("netserver.frames", 0.0), feeds.size), "count")
    out["netserver.frame_encode_us.p50"] = (_pct_us(dur("netserver.frame_encode"), 50), "us")
    # Client round trip minus server work; only the network client knows it.
    out["netserver.residual_us"] = (0.0, "us")

    out["service.decode_us.p50"] = (_pct_us(dur("service.decode"), 50), "us")
    out["service.envelope_us.p50"] = (_pct_us(own("service.handle_dict"), 50), "us")
    out["service.encode_us.p50"] = (_pct_us(own("service.encode"), 50), "us")
    out["service.handle_self_us.p50"] = (_pct_us(own("service.op"), 50), "us")
    waits = dur("service.lock_wait")
    out["service.lock_wait_us.p50"] = (_pct_us(waits, 50), "us")
    out["service.lock_wait_us.p99"] = (_pct_us(waits, 99), "us")
    for op in OPS:
        values = durations.get(f"service.op.{op}", empty)
        out[f"service.op_us.{op}.p50"] = (_pct_us(values, 50), "us")
        if op in TAIL_OPS:
            out[f"service.op_us.{op}.p99"] = (_pct_us(values, 99), "us")

    adds, wheres = dur("telemetry.add"), dur("telemetry.where")
    rows = samples.get("telemetry.where_rows", empty)
    out["telemetry.add_us.p50"] = (_pct_us(adds, 50), "us")
    out["telemetry.add_us.p99"] = (_pct_us(adds, 99), "us")
    out["telemetry.where_us.p50"] = (_pct_us(wheres, 50), "us")
    out["telemetry.where_us.p99"] = (_pct_us(wheres, 99), "us")
    out["telemetry.best_for_us.p50"] = (_pct_us(dur("telemetry.best_for"), 50), "us")
    out["telemetry.top_k_us.p50"] = (_pct_us(dur("telemetry.top_k"), 50), "us")
    out["telemetry.where_rows.max"] = (float(rows.max()) if rows.size else 0.0, "count")
    out["telemetry.where_rows.mean"] = (float(rows.mean()) if rows.size else 0.0, "count")

    records = counters.get("durability.records", 0.0)
    out["durability.append_us.p50"] = (_pct_us(dur("durability.append"), 50), "us")
    out["durability.bytes_per_record"] = (
        ratio(counters.get("durability.bytes", 0.0), records), "bytes")

    out["core.ask_batch_us.p50"] = (_pct_us(dur("core.ask_batch"), 50), "us")
    out["core.ask_us.p50"] = (_pct_us(dur("core.ask"), 50), "us")
    out["core.search_tell_us.p50"] = (_pct_us(dur("core.search_tell"), 50), "us")
    out["core.tuner_run_s"] = (per_unit(float(dur("core.tuner_run").sum())), "s")
    out["core.evaluations"] = (per_unit(counters.get("core.evaluations", 0.0)), "count")
    out["core.cache_hit_ratio"] = (
        ratio(counters.get("core.cache_hits", 0.0), counters.get("core.cache_lookups", 0.0)),
        "ratio",
    )

    out["powerapi.read_us.p50"] = (_pct_us(dur("powerapi.read"), 50), "us")

    samples_w, thermal = dur("hardware.power_sample"), dur("hardware.thermal")
    out["hardware.apply_power_caps_us.p50"] = (_pct_us(dur("hardware.apply_power_caps"), 50), "us")
    out["hardware.power_sample_us.p50"] = (_pct_us(samples_w, 50), "us")
    out["hardware.power_sample_calls"] = (per_unit(samples_w.size), "count")
    out["hardware.allocate_us.p50"] = (_pct_us(dur("hardware.allocate"), 50), "us")
    out["hardware.release_us.p50"] = (_pct_us(dur("hardware.release"), 50), "us")
    out["hardware.rank_free_us.p50"] = (_pct_us(dur("hardware.rank_free"), 50), "us")
    out["hardware.thermal_us.p50"] = (_pct_us(thermal, 50), "us")
    out["hardware.thermal_calls"] = (per_unit(thermal.size), "count")

    passes, plans = dur("resource_manager.pass"), dur("resource_manager.plan")
    depth = samples.get("resource_manager.queue_depth", empty)
    out["resource_manager.passes"] = (per_unit(passes.size), "count")
    out["resource_manager.pass_us.p50"] = (_pct_us(passes, 50), "us")
    out["resource_manager.pass_us.p99"] = (_pct_us(passes, 99), "us")
    out["resource_manager.plan_calls"] = (per_unit(plans.size), "count")
    out["resource_manager.plan_us.p50"] = (_pct_us(plans, 50), "us")
    out["resource_manager.launches_per_plan"] = (
        ratio(counters.get("resource_manager.launchable", 0.0), plans.size), "ratio")
    out["resource_manager.queue_depth_p50"] = (
        float(np.percentile(depth, 50)) if depth.size else 0.0, "count")
    out["resource_manager.queue_depth_max"] = (float(depth.max()) if depth.size else 0.0, "count")
    out["resource_manager.reservation_us.p50"] = (
        _pct_us(dur("resource_manager.reservation"), 50), "us")
    out["resource_manager.submit_us.p50"] = (_pct_us(dur("resource_manager.submit"), 50), "us")
    out["resource_manager.backfills"] = (
        per_unit(counters.get("resource_manager.backfills", 0.0)), "count")

    out["sim.events"] = (per_unit(dur("sim.step").size), "count")
    out["sim.loop_self_s"] = (per_unit(float(own("sim").sum())), "s")

    out["apps.sim_s"] = (per_unit(float(dur("apps.sim").sum())), "s")
    out["apps.jobs"] = (per_unit(counters.get("apps.jobs", 0.0)), "count")
    out["runtime.distribute_us.p50"] = (_pct_us(dur("runtime.distribute"), 50), "us")
    for uc in USE_CASES:
        out[f"experiments.uc_s.{uc}"] = (
            per_unit(float(durations.get(f"experiments.uc.{uc}", empty).sum())), "s")
    out["workloads.synth_s"] = (per_unit(float(dur("workloads.synth").sum())), "s")

    total_self = 0.0
    for layer in LAYERS:
        layer_self = float(own(layer).sum())
        total_self += layer_self
        out[f"self_s.{layer}"] = (per_unit(layer_self), "s")
    out["trace.residual_s"] = (per_unit(wall_s - total_self), "s")
    out["trace.spans"] = (per_unit(sum(v.size for v in durations.values())), "count")
    return out
