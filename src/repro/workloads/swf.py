"""Standard Workload Format (SWF) ingestion and export.

The Parallel Workloads Archive distributes production HPC traces —
including the mega-scale logs this layer targets (ANL Intrepid, 40k
nodes; KIT ForHLR II; the 65k-node trace family) — in SWF: one job per
line, 18 whitespace-separated fields, ``;`` comment header.  This module
parses SWF into typed :class:`SwfJob` records, converts them into the
scheduler's :class:`~repro.apps.generator.JobRequest` objects backed by
:class:`~repro.workloads.replay.TraceReplayApplication` (so million-job
traces replay without per-region physics), and writes traces back out
for round-tripping synthetic workloads into the standard tooling.

Field reference (swf v2.2): job_id, submit, wait, run_time, alloc_procs,
avg_cpu, used_mem, req_procs, req_time, req_mem, status, user, group,
executable, queue, partition, preceding_job, think_time.  ``-1`` means
"unknown" throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.apps.generator import JobRequest
from repro.workloads.replay import TraceReplayApplication

__all__ = [
    "SWF_FIELDS",
    "SwfParseError",
    "SwfJob",
    "SwfTrace",
    "parse_swf",
    "read_swf",
    "write_swf",
    "swf_to_requests",
    "requests_to_swf",
]

#: The 18 standard fields, in on-disk order.
SWF_FIELDS = (
    "job_id",
    "submit_time_s",
    "wait_time_s",
    "run_time_s",
    "allocated_procs",
    "avg_cpu_time_s",
    "used_memory_kb",
    "requested_procs",
    "requested_time_s",
    "requested_memory_kb",
    "status",
    "user_id",
    "group_id",
    "executable_id",
    "queue_id",
    "partition_id",
    "preceding_job_id",
    "think_time_s",
)

_INT_FIELDS = frozenset(
    (
        "job_id",
        "allocated_procs",
        "requested_procs",
        "status",
        "user_id",
        "group_id",
        "executable_id",
        "queue_id",
        "partition_id",
        "preceding_job_id",
    )
)


class SwfParseError(ValueError):
    """A malformed SWF data line (carries the 1-based line number)."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class SwfJob:
    """One SWF record; ``-1`` encodes "unknown" per the standard."""

    job_id: int
    submit_time_s: float
    wait_time_s: float
    run_time_s: float
    allocated_procs: int
    avg_cpu_time_s: float
    used_memory_kb: float
    requested_procs: int
    requested_time_s: float
    requested_memory_kb: float
    status: int
    user_id: int
    group_id: int
    executable_id: int
    queue_id: int
    partition_id: int
    preceding_job_id: int
    think_time_s: float

    def to_line(self) -> str:
        def fmt(value: float) -> str:
            return str(int(value)) if float(value).is_integer() else repr(float(value))

        parts = []
        for name in SWF_FIELDS:
            value = getattr(self, name)
            parts.append(str(int(value)) if name in _INT_FIELDS else fmt(value))
        return " ".join(parts)


@dataclass(frozen=True)
class SwfTrace:
    """A parsed SWF file: header comment lines (without ``;``) + jobs."""

    header: Tuple[str, ...]
    jobs: Tuple[SwfJob, ...]
    #: Data lines dropped by ``on_error="skip"`` as (line_number, reason).
    skipped: Tuple[Tuple[int, str], ...] = ()


def _parse_line(fields: Sequence[str], line_number: int) -> SwfJob:
    if len(fields) < len(SWF_FIELDS):
        raise SwfParseError(
            f"expected {len(SWF_FIELDS)} fields, got {len(fields)}", line_number
        )
    kwargs = {}
    for name, raw in zip(SWF_FIELDS, fields):
        try:
            value = int(raw) if name in _INT_FIELDS else float(raw)
        except ValueError:
            raise SwfParseError(f"field {name!r}: not a number: {raw!r}", line_number)
        # Integer fields are always finite; a NaN requested time would
        # become a NaN walltime estimate.
        if name not in _INT_FIELDS and not math.isfinite(value):
            raise SwfParseError(f"field {name!r}: non-finite: {raw!r}", line_number)
        kwargs[name] = value
    return SwfJob(**kwargs)


def parse_swf(lines: Iterable[str], on_error: str = "raise") -> SwfTrace:
    """Parse SWF text into an :class:`SwfTrace`.

    ``on_error`` is ``"raise"`` (default: any malformed data line aborts
    with :class:`SwfParseError`) or ``"skip"`` (malformed lines are
    recorded in ``trace.skipped`` and parsing continues — production
    logs routinely carry a few truncated lines).
    """
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    header: List[str] = []
    jobs: List[SwfJob] = []
    skipped: List[Tuple[int, str]] = []
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(";"):
            header.append(stripped.lstrip(";").strip())
            continue
        try:
            jobs.append(_parse_line(stripped.split(), line_number))
        except SwfParseError as exc:
            if on_error == "raise":
                raise
            skipped.append((line_number, str(exc)))
    return SwfTrace(header=tuple(header), jobs=tuple(jobs), skipped=tuple(skipped))


def read_swf(path: str, on_error: str = "raise") -> SwfTrace:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_swf(fh, on_error=on_error)


def write_swf(path: str, trace: SwfTrace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for comment in trace.header:
            fh.write(f"; {comment}\n")
        for job in trace.jobs:
            fh.write(job.to_line() + "\n")


def swf_to_requests(
    trace: SwfTrace,
    procs_per_node: int = 1,
    ranks_per_node: int = 1,
    max_nodes: Optional[int] = None,
    power_fraction: float = 0.7,
    default_walltime_s: float = 3600.0,
) -> List[JobRequest]:
    """Convert SWF records into scheduler-ready trace-replay job requests.

    * node count = ceil(procs / ``procs_per_node``), clamped to
      ``max_nodes`` (traces from bigger machines than the simulated one
      would otherwise never start);
    * walltime estimate = requested time, falling back to the actual run
      time, then ``default_walltime_s`` (backfill needs an estimate);
    * records that never ran (``run_time <= 0`` or no processors:
      cancelled-while-queued entries) are dropped, matching standard
      SWF-consumer practice.

    Requests come back sorted by arrival time, which is what
    ``submit_trace``-style drivers require.
    """
    if procs_per_node < 1:
        raise ValueError("procs_per_node must be >= 1")
    requests: List[JobRequest] = []
    for job in trace.jobs:
        procs = job.allocated_procs if job.allocated_procs > 0 else job.requested_procs
        if procs <= 0 or job.run_time_s <= 0:
            continue
        nodes = max(1, math.ceil(procs / procs_per_node))
        if max_nodes is not None:
            nodes = min(nodes, max_nodes)
        walltime = job.requested_time_s
        if walltime <= 0:
            walltime = job.run_time_s
        if walltime <= 0:
            walltime = default_walltime_s
        # The estimate must cover the actual runtime or EASY reservations
        # would be systematically optimistic in ways real logs are not.
        walltime = max(walltime, job.run_time_s)
        requests.append(
            JobRequest(
                job_id=f"swf-{job.job_id}",
                application=TraceReplayApplication(
                    duration_s=job.run_time_s,
                    name=f"swf-app-{job.executable_id}",
                    power_fraction=power_fraction,
                ),
                nodes_requested=nodes,
                ranks_per_node=ranks_per_node,
                walltime_estimate_s=walltime,
                arrival_time_s=max(0.0, job.submit_time_s),
                user=f"user{max(0, job.user_id)}",
            )
        )
    requests.sort(key=lambda r: r.arrival_time_s)
    return requests


def requests_to_swf(
    requests: Sequence[JobRequest],
    procs_per_node: int = 1,
    header: Sequence[str] = (),
) -> SwfTrace:
    """Export job requests (e.g. a synthetic trace) as an SWF trace.

    Only fields the request model carries are populated; the rest are
    ``-1`` per the SWF "unknown" convention.  Replay-backed requests
    contribute their recorded duration as ``run_time_s``; physics-backed
    requests contribute ``-1`` (runtime is an outcome, not an input).
    """
    jobs: List[SwfJob] = []
    for index, request in enumerate(requests, start=1):
        app = request.application
        run_time = app.duration_s if isinstance(app, TraceReplayApplication) else -1.0
        user_id = -1
        if request.user.startswith("user"):
            try:
                user_id = int(request.user[4:])
            except ValueError:
                pass
        jobs.append(
            SwfJob(
                job_id=index,
                submit_time_s=request.arrival_time_s,
                wait_time_s=-1.0,
                run_time_s=run_time,
                allocated_procs=request.nodes_requested * procs_per_node,
                avg_cpu_time_s=-1.0,
                used_memory_kb=-1.0,
                requested_procs=request.nodes_requested * procs_per_node,
                requested_time_s=request.walltime_estimate_s,
                requested_memory_kb=-1.0,
                status=-1,
                user_id=user_id,
                group_id=-1,
                executable_id=-1,
                queue_id=-1,
                partition_id=-1,
                preceding_job_id=-1,
                think_time_s=-1.0,
            )
        )
    return SwfTrace(header=tuple(header), jobs=tuple(jobs))
