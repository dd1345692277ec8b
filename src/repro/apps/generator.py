"""Synthetic workload (job-trace) generation for system-level experiments.

The system-level use cases — multi-job GEOPM policy assignment (Figure 3),
power-corridor enforcement (Figure 6), SLURM throughput studies (use case
1's jobs/hour metric) — need a stream of jobs with realistic variety:
different applications, node counts, malleability, arrival times and
walltimes.  :class:`WorkloadGenerator` produces such a stream
deterministically from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.apps.base import Application, SyntheticApplication, make_phase
from repro.apps.hypre import HypreLaplacian
from repro.apps.kernels import TileableKernel
from repro.apps.lulesh import LuleshProxy
from repro.apps.stream import DgemmKernel, StreamTriad
from repro.sim.rng import RandomStreams

__all__ = ["JobRequest", "WorkloadGenerator"]


@dataclass
class JobRequest:
    """A job submission as the resource manager sees it."""

    job_id: str
    application: Application
    params: Dict[str, Any] = field(default_factory=dict)
    #: Requested node count for rigid jobs; the preferred count for moldable ones.
    nodes_requested: int = 1
    #: For moldable jobs: the smallest node count the job accepts (paper
    #: §3.1.1 "the user provides a minimum and a maximum number of nodes").
    nodes_min: Optional[int] = None
    #: For moldable jobs: the largest useful node count.
    nodes_max: Optional[int] = None
    ranks_per_node: int = 1
    #: User-estimated walltime (seconds) used for backfilling.
    walltime_estimate_s: float = 600.0
    #: Whether the job can be resized while running (malleable, via EPOP).
    malleable: bool = False
    arrival_time_s: float = 0.0
    #: Optional user/project identifier for fair-share style policies.
    user: str = "user0"

    def __post_init__(self) -> None:
        if self.nodes_requested < 1:
            raise ValueError("nodes_requested must be >= 1")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        # NaN (caught by ``not``) or inf would break the EASY release order.
        if not 0 < self.walltime_estimate_s < math.inf:
            raise ValueError("walltime_estimate_s must be positive and finite")
        if not math.isfinite(self.arrival_time_s):
            raise ValueError("arrival_time_s must be finite")
        if self.nodes_min is not None and self.nodes_min < 1:
            raise ValueError("nodes_min must be >= 1")
        if (
            self.nodes_min is not None
            and self.nodes_max is not None
            and self.nodes_min > self.nodes_max
        ):
            raise ValueError("nodes_min must not exceed nodes_max")
        # Checked here, not first at launch, where a refused parameter would
        # raise inside a scheduling pass and wedge the FCFS head.
        if self.params:
            try:
                self.application.validate_parameters(self.params)
            except KeyError as error:
                raise ValueError(error.args[0]) from None

    @property
    def moldable(self) -> bool:
        return self.nodes_min is not None and self.nodes_max is not None

    def acceptable_node_counts(self) -> List[int]:
        """Node counts the job can start with (respecting rank constraints).

        The result is memoized: the shape fields and the application's
        rank constraint are fixed after construction, and every scheduler
        pass consults this for every pending candidate, so recomputing
        the constraint sweep per pass is pure overhead at trace scale.
        Callers must not mutate the returned list.
        """
        cached = self.__dict__.get("_acceptable_counts")
        if cached is not None:
            return cached
        if self.moldable:
            candidates = range(self.nodes_min, self.nodes_max + 1)
        else:
            candidates = [self.nodes_requested]
        counts = [
            n
            for n in candidates
            if self.application.rank_constraint(n * self.ranks_per_node)
        ]
        self.__dict__["_acceptable_counts"] = counts
        return counts


class WorkloadGenerator:
    """Generates deterministic synthetic job streams."""

    #: Application mix: (constructor, weight, typical node counts, malleable).
    DEFAULT_MIX = (
        ("hypre", 0.3),
        ("lulesh", 0.2),
        ("stream", 0.15),
        ("dgemm", 0.15),
        ("kernel", 0.1),
        ("synthetic", 0.1),
    )

    def __init__(
        self,
        streams: Optional[RandomStreams] = None,
        mean_interarrival_s: float = 120.0,
        max_nodes_per_job: int = 8,
        malleable_fraction: float = 0.3,
    ):
        if mean_interarrival_s <= 0:
            raise ValueError("mean_interarrival_s must be positive")
        if max_nodes_per_job < 1:
            raise ValueError("max_nodes_per_job must be >= 1")
        if not 0.0 <= malleable_fraction <= 1.0:
            raise ValueError("malleable_fraction must be in [0, 1]")
        self.streams = streams or RandomStreams(0)
        self.mean_interarrival_s = float(mean_interarrival_s)
        self.max_nodes_per_job = int(max_nodes_per_job)
        self.malleable_fraction = float(malleable_fraction)

    # -- application factories -------------------------------------------------
    def _make_application(self, kind: str, rng) -> tuple[Application, Dict[str, Any], int]:
        """Return (application, params, preferred node count)."""
        if kind == "hypre":
            app = HypreLaplacian()
            params = {
                "solver": rng.choice(["PCG", "GMRES", "BiCGSTAB"]),
                "preconditioner": rng.choice(["BoomerAMG", "ParaSails", "Jacobi", "Euclid"]),
            }
            nodes = int(rng.choice([1, 2, 4, 8]))
        elif kind == "lulesh":
            app = LuleshProxy(n_timesteps=int(rng.integers(10, 30)))
            params = {"problem_size": int(rng.choice([30, 45, 60]))}
            nodes = int(rng.choice([1, 8]))  # cubic rank counts with 1 rank/node
        elif kind == "stream":
            app = StreamTriad(n_iterations=int(rng.integers(10, 40)))
            params = {}
            nodes = int(rng.choice([1, 2, 4]))
        elif kind == "dgemm":
            app = DgemmKernel(n_iterations=int(rng.integers(5, 20)))
            params = {"matrix_n": int(rng.choice([2048, 4096, 8192]))}
            nodes = int(rng.choice([1, 2, 4]))
        elif kind == "kernel":
            app = TileableKernel(n_iterations=int(rng.integers(3, 10)))
            params = {}
            nodes = 1
        else:  # synthetic phase mix
            phases = [
                make_phase("compute", float(rng.uniform(0.2, 1.5)), kind="compute", ref_threads=56),
                make_phase("memory", float(rng.uniform(0.2, 1.5)), kind="memory", ref_threads=56),
                make_phase("exchange", float(rng.uniform(0.05, 0.4)), kind="mpi",
                           comm_fraction=0.7, ref_threads=56),
            ]
            app = SyntheticApplication(
                f"synthetic_{int(rng.integers(0, 1_000_000))}",
                phases,
                n_iterations=int(rng.integers(5, 25)),
            )
            params = {}
            nodes = int(rng.choice([1, 2, 4, 8]))
        nodes = min(nodes, self.max_nodes_per_job)
        # Capping the node count must not break the application's rank
        # constraint (e.g. LULESH needs cubic rank counts): fall back to
        # the largest constraint-satisfying count, so the generator never
        # emits a job that no scheduler could ever start.
        while nodes > 1 and not app.rank_constraint(nodes):
            nodes -= 1
        return app, params, nodes

    def _pick_kind(self, rng) -> str:
        kinds = [k for k, _ in self.DEFAULT_MIX]
        weights = [w for _, w in self.DEFAULT_MIX]
        total = sum(weights)
        return str(rng.choice(kinds, p=[w / total for w in weights]))

    # -- public API --------------------------------------------------------------
    def generate(self, count: int, start_time_s: float = 0.0) -> List[JobRequest]:
        """Generate ``count`` job requests with Poisson arrivals."""
        if count < 0:
            raise ValueError("count must be >= 0")
        rng = self.streams.stream("workload.jobs")
        arrival_rng = self.streams.stream("workload.arrivals")
        requests: List[JobRequest] = []
        time = float(start_time_s)
        for i in range(count):
            kind = self._pick_kind(rng)
            app, params, nodes = self._make_application(kind, rng)
            malleable = (
                kind in ("hypre", "stream", "synthetic")
                and rng.random() < self.malleable_fraction
            )
            nodes_min = max(1, nodes // 2) if malleable else None
            nodes_max = min(self.max_nodes_per_job, nodes * 2) if malleable else None
            walltime = float(rng.uniform(120.0, 1800.0))
            requests.append(
                JobRequest(
                    job_id=f"job-{i:04d}",
                    application=app,
                    params=params,
                    nodes_requested=nodes,
                    nodes_min=nodes_min,
                    nodes_max=nodes_max,
                    ranks_per_node=1,
                    walltime_estimate_s=walltime,
                    malleable=malleable,
                    arrival_time_s=time,
                    user=f"user{int(rng.integers(0, 5))}",
                )
            )
            time += float(arrival_rng.exponential(self.mean_interarrival_s))
        return requests
