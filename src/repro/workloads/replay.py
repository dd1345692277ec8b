"""Trace-replay application: fixed-duration jobs without per-region physics.

Workload-trace studies (SWF logs, synthetic mega-traces) care about
*scheduling* behaviour — queue dynamics, backfill, power admission —
over hundreds of thousands of jobs, not about the per-iteration
package-level physics the :class:`~repro.apps.mpi.MpiJobSimulator`
models.  At that scale the physics dominates wall-clock: a 2000-job
synthetic trace spends >85% of its time inside ``execute_phase``.

:class:`TraceReplayApplication` is an :class:`~repro.apps.base.Application`
whose jobs replay a recorded runtime verbatim.  It carries a
``make_simulator`` hook the scheduler duck-types on launch, substituting
a :class:`TraceJobSimulator` — one DES timeout per job, constant node
power, analytic energy — for the phase-by-phase simulator.  Scheduling
decisions (feasibility, EASY reservations, power commitments) are
identical either way; only the job-interior physics is stubbed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.apps.base import Application
from repro.apps.mpi import JobResult
from repro.hardware.node import Node
from repro.sim.engine import Environment
from repro.hardware.workload import PhaseDemand

__all__ = ["TraceReplayApplication", "TraceJobSimulator"]


class TraceReplayApplication(Application):
    """An application that runs for a recorded duration at constant power.

    ``power_fraction`` places the node's draw between idle and TDP while
    the job runs (SWF logs carry no power data; 0.7 approximates a busy
    HPC node).  ``power_per_node_w``, when given, overrides the fraction
    with an absolute per-node draw — for traces that *do* record power.
    """

    def __init__(
        self,
        duration_s: float,
        name: str = "trace-replay",
        power_fraction: float = 0.7,
        power_per_node_w: Optional[float] = None,
    ):
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        if not 0.0 <= power_fraction <= 1.0:
            raise ValueError("power_fraction must be in [0, 1]")
        if power_per_node_w is not None and power_per_node_w < 0:
            raise ValueError("power_per_node_w must be >= 0")
        self.name = name
        self.duration_s = float(duration_s)
        self.power_fraction = float(power_fraction)
        self.power_per_node_w = power_per_node_w

    # -- Application interface -------------------------------------------------
    def rank_constraint(self, ranks: int) -> bool:
        return ranks >= 1

    def iterations(self, params: Mapping[str, Any]) -> int:
        return 1

    def phase_sequence(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        # Valid phase structure so a replay job *can* run under the full
        # physics simulator (e.g. for spot-checking a trace entry); the
        # scheduler normally bypasses this via make_simulator.
        return [
            PhaseDemand(
                name="replay",
                ref_seconds=self.duration_s,
                core_fraction=0.5,
                memory_fraction=0.3,
                comm_fraction=0.0,
                activity_factor=self.power_fraction,
                dram_intensity=0.3,
            )
        ]

    # -- scheduler hook ----------------------------------------------------------
    def make_simulator(self, env: Environment, nodes: Sequence[Node], job, runtime):
        """Duck-typed hook consulted by the scheduler at launch time."""
        return TraceJobSimulator(
            env,
            nodes,
            self,
            job_id=job.job_id,
            params=dict(job.request.params),
        )


class TraceJobSimulator:
    """Replays one trace job as a single DES timeout at constant power.

    The scheduler starts it with :meth:`start_detached` instead of the
    generator process it runs a :class:`~repro.apps.mpi.MpiJobSimulator`
    in: a replay job has no interior structure, so the whole job is one
    timeout whose callback hands the scheduler a
    :class:`~repro.apps.mpi.JobResult`.  Unlike the physics simulator
    (which cancels at the next iteration boundary), ``cancel()`` tears
    the job down at once; energy is accrued for the elapsed fraction.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Sequence[Node],
        application: TraceReplayApplication,
        job_id: str = "job-0",
        params: Optional[Dict[str, Any]] = None,
    ):
        if not nodes:
            raise ValueError("a job needs at least one node")
        self.env = env
        self.nodes: List[Node] = list(nodes)
        self.application = application
        self.job_id = job_id
        self.params = dict(params or {})
        self._cancelled = False
        #: Set from start until the result is delivered, with ``_event``
        #: the pending timeout whose callback is :meth:`_deliver`.
        self._on_done = None
        self._event = None
        self._start_s = 0.0
        self._total_w = 0.0

    def start_detached(self, on_done) -> None:
        """Schedule completion as a single timeout; no generator process.

        The timeout's callback hands ``on_done`` the :class:`JobResult`.
        Cancel and crash injection detach that timeout and deliver the
        partial result through a zero-delay event.
        """
        self._on_done = on_done
        self._start_s = self.env.now
        self._total_w = self._apply_power()
        duration = self.application.duration_s if not self._cancelled else 0.0
        self._event = self.env.timeout(duration)
        self._event.callbacks.append(self._deliver)

    # repro-lint: hot
    def _deliver(self, _event) -> None:
        # Drop the callback and the event before handing the result over:
        # a finished simulator holds no reference back to its scheduler.
        on_done = self._on_done
        self._on_done = self._event = None
        elapsed = self.env.now - self._start_s
        app = self.application
        on_done(
            JobResult(
                job_id=self.job_id,
                app_name=app.name,
                params=self.params,
                hostnames=[node.hostname for node in self.nodes],
                runtime_s=elapsed,
                energy_j=self._total_w * elapsed,
                iterations_done=0 if self._cancelled else 1,
                mpi_wait_s=0.0,
            )
        )

    # repro-lint: hot
    def _apply_power(self) -> float:
        """Write the constant per-node draw; return the job's total watts.

        Each allocated node draws ``power_per_node_w`` when the trace
        records it, else ``idle + power_fraction * (tdp - idle)``, read
        from the state's memoized busy-power vector: one gather and one
        fancy-indexed write through one index array, so per job this is
        O(job nodes), not O(cluster).
        """
        app = self.application
        nodes = self.nodes
        state = nodes[0].cluster_state
        idx = np.array([n.node_id for n in nodes], dtype=np.intp)
        if app.power_per_node_w is not None:
            watts = np.full(len(nodes), float(app.power_per_node_w))
        else:
            watts = state.busy_power_per_node(app.power_fraction)[idx]
        state.node_current_power_w[idx] = watts
        return float(watts.sum())

    def cancel(self) -> None:
        """Stop the replay immediately (crash injection or user cancel)."""
        self._cancelled = True
        if self._on_done is None:  # not started, or already delivered
            return
        # Unhook the pending completion and deliver the partial result
        # via a zero-delay event, so the scheduler tears down after the
        # caller returns, not inside it.
        self._event.callbacks.remove(self._deliver)
        self._event = self.env.timeout(0.0)
        self._event.callbacks.append(self._deliver)
