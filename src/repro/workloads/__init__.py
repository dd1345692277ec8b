"""Workload-trace ingestion and synthesis.

This layer feeds the scheduler job streams at trace scale:

* :mod:`repro.workloads.swf` — Standard Workload Format (Parallel
  Workloads Archive) parsing, export, and conversion to scheduler
  job requests;
* :mod:`repro.workloads.replay` — the trace-replay application and
  its one-timeout job simulator (no per-region physics);
* :mod:`repro.workloads.synth` — deterministic synthetic replay traces
  for mega-scale scheduling (full-physics synthetic workloads come
  from :class:`~repro.apps.generator.WorkloadGenerator`).
"""

from repro.workloads.replay import TraceJobSimulator, TraceReplayApplication
from repro.workloads.swf import (
    SwfJob,
    SwfParseError,
    SwfTrace,
    parse_swf,
    read_swf,
    requests_to_swf,
    swf_to_requests,
    write_swf,
)
from repro.workloads.synth import synthesize_replay_trace

__all__ = [
    "TraceJobSimulator",
    "TraceReplayApplication",
    "SwfJob",
    "SwfParseError",
    "SwfTrace",
    "parse_swf",
    "read_swf",
    "write_swf",
    "swf_to_requests",
    "requests_to_swf",
    "synthesize_replay_trace",
]
