"""Synthetic replay traces for mega-scale scheduling studies.

:func:`synthesize_replay_trace` emits
:class:`~repro.workloads.replay.TraceReplayApplication`-backed requests
— the path for tens of thousands of nodes and hundreds of thousands of
jobs, where only scheduling dynamics matter and the per-job cost must
be one DES timeout.  Full-physics synthetic workloads, where
job-interior behaviour matters, come from
:class:`~repro.apps.generator.WorkloadGenerator` directly.

Traces are deterministic functions of their seed and can be
round-tripped through SWF via
:func:`~repro.workloads.swf.requests_to_swf`.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.apps.generator import JobRequest
from repro.sim.rng import RandomStreams
from repro.workloads.replay import TraceReplayApplication

__all__ = ["synthesize_replay_trace"]


def synthesize_replay_trace(
    count: int,
    seed: int = 0,
    mean_interarrival_s: float = 30.0,
    max_nodes_per_job: int = 64,
    mean_runtime_s: float = 1800.0,
    min_runtime_s: float = 60.0,
    walltime_slack: float = 1.5,
    power_fraction: float = 0.7,
    n_users: int = 32,
    start_time_s: float = 0.0,
    arrival_quantum_s: Optional[float] = None,
    job_id_prefix: str = "trace",
) -> List[JobRequest]:
    """Replay-fidelity synthetic trace for mega-scale scheduling studies.

    Distributions follow the stylised facts of production SWF logs
    (Feitelson's workload-modelling surveys): Poisson arrivals,
    log-uniform node counts (small jobs dominate, a heavy tail reaches
    ``max_nodes_per_job``), exponential runtimes floored at
    ``min_runtime_s``, and user walltime estimates that overestimate the
    true runtime by up to ``walltime_slack``x.

    ``arrival_quantum_s`` floors submit times to a grid (SWF logs record
    integer-second submits, and production submission is bursty — job
    arrays and scripted sweeps land many jobs on one timestamp).  The
    scheduler batches same-timestamp arrivals into a single pass, so a
    quantised trace also exercises that path.

    Deterministic in ``seed``; arrival times are non-decreasing.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if max_nodes_per_job < 1:
        raise ValueError("max_nodes_per_job must be >= 1")
    if mean_interarrival_s <= 0 or mean_runtime_s <= 0:
        raise ValueError("interarrival and runtime means must be positive")
    if walltime_slack < 1.0:
        raise ValueError("walltime_slack must be >= 1")
    streams = RandomStreams(seed)
    rng = streams.stream("replay.jobs")
    arrival_rng = streams.stream("replay.arrivals")
    requests: List[JobRequest] = []
    time = float(start_time_s)
    max_exponent = math.log2(max_nodes_per_job)
    for i in range(count):
        nodes = int(2 ** rng.uniform(0.0, max_exponent))
        runtime = max(float(min_runtime_s), float(rng.exponential(mean_runtime_s)))
        walltime = runtime * float(rng.uniform(1.0, walltime_slack))
        arrival = time
        if arrival_quantum_s is not None:
            arrival = math.floor(arrival / arrival_quantum_s) * arrival_quantum_s
        requests.append(
            JobRequest(
                job_id=f"{job_id_prefix}-{i:06d}",
                application=TraceReplayApplication(
                    duration_s=runtime,
                    name="synthetic-replay",
                    power_fraction=power_fraction,
                ),
                nodes_requested=nodes,
                ranks_per_node=1,
                walltime_estimate_s=walltime,
                arrival_time_s=arrival,
                user=f"user{int(rng.integers(0, n_users))}",
            )
        )
        time += float(arrival_rng.exponential(mean_interarrival_s))
    return requests
