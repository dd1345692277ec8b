"""Job state machine and accounting as seen by the resource manager."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.apps.generator import JobRequest
from repro.apps.mpi import JobResult
from repro.hardware.node import Node

__all__ = ["JobState", "Job"]


class JobState(str, Enum):
    """Lifecycle states of a job in the resource manager."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass
class Job:
    """A submitted job plus the RM's bookkeeping about it."""

    request: JobRequest
    state: JobState = JobState.PENDING
    submit_time_s: float = 0.0
    start_time_s: Optional[float] = None
    end_time_s: Optional[float] = None
    assigned_nodes: List[Node] = field(default_factory=list)
    power_budget_w: Optional[float] = None
    result: Optional[JobResult] = None
    #: GEOPM-style policy metadata recorded at launch (Figure 3 reporting).
    launch_metadata: Dict[str, object] = field(default_factory=dict)
    #: Times this job was re-queued after a node crash interrupted it.
    restarts: int = 0
    #: Mirror of ``request.job_id``: the id is immutable and read on
    #: every queue/ledger operation, so a plain attribute beats a
    #: property round trip at trace scale.
    job_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.job_id = self.request.job_id

    @property
    def is_active(self) -> bool:
        return self.state in (JobState.PENDING, JobState.RUNNING)

    @property
    def node_count(self) -> int:
        return len(self.assigned_nodes)

    # -- timing metrics -----------------------------------------------------------
    def wait_time_s(self) -> Optional[float]:
        """Queuing delay (None while still pending)."""
        if self.start_time_s is None:
            return None
        return self.start_time_s - self.submit_time_s

    def run_time_s(self) -> Optional[float]:
        if self.start_time_s is None or self.end_time_s is None:
            return None
        return self.end_time_s - self.start_time_s

    def turnaround_s(self) -> Optional[float]:
        if self.end_time_s is None:
            return None
        return self.end_time_s - self.submit_time_s

    # -- state transitions ------------------------------------------------------------
    def mark_started(self, time_s: float, nodes: List[Node], power_budget_w: Optional[float]) -> None:
        if self.state is not JobState.PENDING:
            raise RuntimeError(f"cannot start job {self.job_id} in state {self.state}")
        self.state = JobState.RUNNING
        self.start_time_s = time_s
        self.assigned_nodes = list(nodes)
        self.power_budget_w = power_budget_w

    def mark_completed(self, time_s: float, result: Optional[JobResult]) -> None:
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"cannot complete job {self.job_id} in state {self.state}")
        self.state = JobState.COMPLETED
        self.end_time_s = time_s
        self.result = result

    def mark_cancelled(self, time_s: float) -> None:
        if self.state in (JobState.COMPLETED, JobState.FAILED):
            raise RuntimeError(f"cannot cancel job {self.job_id} in state {self.state}")
        self.state = JobState.CANCELLED
        self.end_time_s = time_s

    def mark_failed(self, time_s: float) -> None:
        self.state = JobState.FAILED
        self.end_time_s = time_s

    def mark_requeued(self, time_s: float) -> None:
        """Return an interrupted RUNNING job to PENDING (crash recovery).

        Launch-specific state is reset; ``submit_time_s`` is kept, so
        wait-time accounting charges the full queue-to-final-start span.
        """
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"cannot requeue job {self.job_id} in state {self.state}")
        self.state = JobState.PENDING
        self.start_time_s = None
        self.end_time_s = None
        self.assigned_nodes = []
        self.power_budget_w = None
        self.result = None
        self.restarts += 1
