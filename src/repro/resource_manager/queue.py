"""Job queue with FCFS ordering and EASY-backfill candidate selection.

"Which job to run (or backfill) from the job queue" is one of the static
RM/runtime interactions listed in §3.1.1.  The queue keeps submission
order; the scheduler asks it for the head job and — when the head cannot
start — for backfill candidates that will not delay the head's reserved
start time.

The queue is backed by an insertion-ordered dict keyed on job id, so
``push``/``remove``/``head`` are O(1) instead of O(pending): at
trace-replay scale (100k+ queued jobs) the scheduler removes and
re-queues jobs on every launch, crash re-queue and cancel, and a
list-backed ``remove`` alone dominated the pass cost.  Iteration order
is identical to the old list implementation (append order, re-queues go
to the tail).
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional

from repro.resource_manager.job import Job, JobState

__all__ = ["JobQueue"]


class JobQueue:
    """FCFS queue of pending jobs with backfill support."""

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(list(self._jobs.values()))

    def push(self, job: Job) -> None:
        if job.state is not JobState.PENDING:
            raise ValueError(f"only pending jobs can be queued (got {job.state})")
        if job.job_id in self._jobs:
            raise ValueError(f"job {job.job_id!r} is already queued")
        self._jobs[job.job_id] = job

    def remove(self, job: Job) -> None:
        if self._jobs.pop(job.job_id, None) is None:
            raise ValueError(f"job {job.job_id!r} is not queued")

    def head(self) -> Optional[Job]:
        """The job FCFS says must start next (None if the queue is empty)."""
        return next(iter(self._jobs.values()), None)

    def pending(self) -> List[Job]:
        return list(self._jobs.values())

    # repro-lint: hot
    def backfill_candidates(
        self,
        now_s: float,
        shadow_time_s: float,
        fits: Callable[[Job], bool],
        max_candidates: Optional[int] = None,
    ) -> List[Job]:
        """Jobs (excluding the head) that may be backfilled.

        EASY backfill rule: a candidate may start now if it fits in the
        currently free resources *and* its estimated completion
        (``now + walltime_estimate``) does not exceed the head job's
        reserved start time (``shadow_time_s``).  ``fits`` encapsulates
        the resource/power check, which only the scheduler can do.

        ``max_candidates`` bounds how deep past the head the sweep looks
        (SLURM's ``bf_max_job_test``): at mega-trace scale an unbounded
        sweep over 100k pending jobs per pass is the dominant cost.
        ``None`` keeps the historical exhaustive sweep.
        """
        if shadow_time_s < now_s:
            return []
        stop = None if max_candidates is None else 1 + max_candidates
        return [
            job
            for job in islice(self._jobs.values(), 1, stop)  # past the FCFS head
            if now_s + job.request.walltime_estimate_s <= shadow_time_s and fits(job)
        ]

    def jobs_by_user(self, user: str) -> List[Job]:
        return [j for j in self._jobs.values() if j.request.user == user]
