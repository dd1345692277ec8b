"""The assembled PowerStack: cluster + policies + scheduler + runtimes.

:class:`PowerStack` wires the simulated layers together exactly as
Figure 2 places them — site policies on top, the resource manager over
the cluster, job-level runtimes attached at launch, applications inside
jobs, node-level controls underneath — and gives the tuning layers a
single object to build, run and measure.  Each call to
:meth:`PowerStack.run_workload` uses a *fresh* cluster and environment
so tuning evaluations are independent.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.apps.generator import JobRequest
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.resource_manager.irm import CorridorStrategy, InvasiveResourceManager
from repro.resource_manager.policies import SitePolicies
from repro.resource_manager.slurm import PowerAwareScheduler, SchedulerConfig, SchedulerStats
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams

__all__ = ["PowerStackConfig", "PowerStackRun", "PowerStack"]


@dataclass
class PowerStackConfig:
    """Everything needed to instantiate one PowerStack."""

    cluster: ClusterSpec = field(default_factory=lambda: ClusterSpec(n_nodes=8))
    policies: SitePolicies = field(default_factory=SitePolicies)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Use the invasive RM (corridor management) instead of the plain scheduler.
    use_irm: bool = False
    corridor_strategy: CorridorStrategy = CorridorStrategy.INVASIVE
    seed: int = 0


@dataclass
class PowerStackRun:
    """The outcome of running one workload through the stack."""

    stats: SchedulerStats
    scheduler: PowerAwareScheduler
    cluster: Cluster

    def metrics(self) -> Dict[str, float]:
        """Canonical metric dictionary for objectives and constraints."""
        stats = self.stats
        return {
            "runtime_s": stats.makespan_s,
            "energy_j": stats.total_energy_j,
            "power_w": stats.mean_system_power_w,
            "peak_power_w": stats.peak_system_power_w,
            "throughput_jobs_per_hour": stats.throughput_jobs_per_hour,
            "mean_wait_s": stats.mean_wait_s,
            "mean_turnaround_s": stats.mean_turnaround_s,
            "node_utilization": stats.node_utilization,
            "jobs_completed": float(stats.jobs_completed),
        }


class PowerStack:
    """Factory + driver for complete PowerStack simulations."""

    def __init__(self, config: Optional[PowerStackConfig] = None):
        self.config = config or PowerStackConfig()

    # -- construction --------------------------------------------------------------------
    def build(
        self,
        seed_offset: int = 0,
        runtime_factory: Optional[Callable] = None,
        policies_override: Optional[SitePolicies] = None,
        scheduler_override: Optional[SchedulerConfig] = None,
    ) -> PowerAwareScheduler:
        """Instantiate a fresh environment, cluster and scheduler."""
        cfg = self.config
        env = Environment()
        cluster = Cluster(cfg.cluster, seed=cfg.seed + seed_offset)
        policies = policies_override or copy.deepcopy(cfg.policies)
        sched_cfg = scheduler_override or copy.deepcopy(cfg.scheduler)
        if runtime_factory is not None:
            sched_cfg.runtime_factory = runtime_factory
        streams = RandomStreams(cfg.seed + seed_offset)
        if cfg.use_irm:
            return InvasiveResourceManager(
                env, cluster, policies, sched_cfg, streams, strategy=cfg.corridor_strategy
            )
        return PowerAwareScheduler(env, cluster, policies, sched_cfg, streams)

    # -- execution ---------------------------------------------------------------------------
    def run_workload(
        self,
        requests: Sequence[JobRequest],
        seed_offset: int = 0,
        runtime_factory: Optional[Callable] = None,
        policies_override: Optional[SitePolicies] = None,
        scheduler_override: Optional[SchedulerConfig] = None,
    ) -> PowerStackRun:
        """Run a workload through a freshly built stack and return metrics."""
        scheduler = self.build(
            seed_offset=seed_offset,
            runtime_factory=runtime_factory,
            policies_override=policies_override,
            scheduler_override=scheduler_override,
        )
        scheduler.submit_trace(self._clone_requests(requests))
        stats = scheduler.run_until_complete()
        return PowerStackRun(stats=stats, scheduler=scheduler, cluster=scheduler.cluster)

    @staticmethod
    def _clone_requests(requests: Sequence[JobRequest]) -> List[JobRequest]:
        """Deep-ish copies so one evaluation cannot mutate another's requests."""
        clones: List[JobRequest] = []
        for request in requests:
            clones.append(
                replace_request(request)
            )
        return clones

    # -- convenience for small tests -----------------------------------------------------------


def replace_request(request: JobRequest, **overrides: Any) -> JobRequest:
    """Copy a :class:`JobRequest`, optionally overriding fields.

    The application object itself is shared (applications are stateless);
    the parameter dictionary is copied so per-evaluation overrides are safe.
    """
    data = dict(
        job_id=request.job_id,
        application=request.application,
        params=dict(request.params),
        nodes_requested=request.nodes_requested,
        nodes_min=request.nodes_min,
        nodes_max=request.nodes_max,
        ranks_per_node=request.ranks_per_node,
        walltime_estimate_s=request.walltime_estimate_s,
        malleable=request.malleable,
        arrival_time_s=request.arrival_time_s,
        user=request.user,
    )
    data.update(overrides)
    return JobRequest(**data)
