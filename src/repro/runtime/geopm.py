"""GEOPM: Global Extensible Open Power Manager (use case 2, Figure 3).

The model follows the published GEOPM architecture at the granularity
the paper cares about:

* a per-job **controller** (here :class:`GeopmRuntime`) running one of
  the pluggable :mod:`agents <repro.runtime.agents>`, driven by *epochs*
  (application iterations) and *regions*,
* a **policy** (:class:`GeopmPolicy`) describing the site/job-level
  intent — agent choice, job power budget, frequency, allowed
  performance degradation — which can come from a static site-wide
  configuration file, a per-job database entry, or dynamically from the
  resource manager (the three "modes of community site-level policies"
  of §3.2.2),
* an **endpoint** (:class:`GeopmEndpoint`): the shared-memory-style
  channel between a persistent resource-manager daemon and the GEOPM
  root controller, through which policies flow down and samples flow up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from repro.apps.mpi import MpiJobSimulator, RegionRecord
from repro.hardware.workload import PhaseDemand
from repro.runtime.agents import AGENT_REGISTRY, Agent
from repro.runtime.base import JobRuntime, register_runtime

__all__ = ["GeopmPolicy", "GeopmEndpoint", "GeopmRuntime"]


@dataclass(frozen=True)
class GeopmPolicy:
    """A GEOPM policy as passed at job launch or through the endpoint."""

    agent: str = "monitor"
    #: Job-level power budget (W) — the power governor / balancer input.
    power_budget_w: Optional[float] = None
    #: Static frequency request (GHz) — the frequency-map agent input.
    frequency_ghz: Optional[float] = None
    #: Allowed relative performance degradation for the energy-efficient agent.
    perf_degradation: float = 0.05
    #: Free-form provenance: "site_default", "job_db", or "dynamic".
    source: str = "site_default"

    def __post_init__(self) -> None:
        if self.agent not in AGENT_REGISTRY:
            raise ValueError(
                f"unknown GEOPM agent {self.agent!r}; available: {sorted(AGENT_REGISTRY)}"
            )
        if self.power_budget_w is not None and self.power_budget_w <= 0:
            raise ValueError("power_budget_w must be positive")
        if self.frequency_ghz is not None and self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        if self.perf_degradation < 0:
            raise ValueError("perf_degradation must be >= 0")

    def with_budget(self, power_budget_w: float) -> "GeopmPolicy":
        return replace(self, power_budget_w=power_budget_w)


@dataclass
class GeopmEndpoint:
    """Bidirectional RM <-> GEOPM channel ("endpoint" in the paper).

    The resource manager writes policies; the GEOPM controller reads the
    latest policy each epoch and writes back a sample (job power,
    progress), which the RM polls.
    """

    job_id: str = "job-0"
    _policy: Optional[GeopmPolicy] = None
    _sample: Dict[str, float] = field(default_factory=dict)
    policy_updates: int = 0
    sample_updates: int = 0

    # RM side -------------------------------------------------------------
    def write_policy(self, policy: GeopmPolicy) -> None:
        self._policy = policy
        self.policy_updates += 1

    # GEOPM side ----------------------------------------------------------
    def read_policy(self) -> Optional[GeopmPolicy]:
        return self._policy

    def write_sample(self, sample: Dict[str, float]) -> None:
        self._sample = dict(sample)
        self.sample_updates += 1


@register_runtime
class GeopmRuntime(JobRuntime):
    """The per-job GEOPM controller tree (root + per-node leaf controllers)."""

    name = "geopm"
    tunable_parameters = {
        "agent": sorted(AGENT_REGISTRY),
        "perf_degradation": [0.02, 0.05, 0.10, 0.20],
    }

    def __init__(
        self,
        policy: Optional[GeopmPolicy] = None,
        endpoint: Optional[GeopmEndpoint] = None,
        agent: Optional[Agent] = None,
    ):
        self.policy = policy or GeopmPolicy()
        super().__init__(power_budget_w=self.policy.power_budget_w)
        self.endpoint = endpoint
        if agent is not None:
            self.agent: Agent = agent
        else:
            self.agent = AGENT_REGISTRY[self.policy.agent]()
        self._epoch_stats: Dict[str, Dict[str, float]] = {}
        self._epoch_count = 0
        self._job_energy_j = 0.0
        self._job_runtime_s = 0.0

    # -- policy handling ----------------------------------------------------------
    def apply_policy(self, policy: GeopmPolicy) -> None:
        """Switch to a new policy (and agent, if it changed) mid-run."""
        if policy.agent != self.policy.agent:
            self.agent = AGENT_REGISTRY[policy.agent]()
        self.policy = policy
        self._power_budget_w = policy.power_budget_w
        if self.nodes:
            self.agent.startup(self.nodes, self.policy)

    def _poll_endpoint(self) -> None:
        if self.endpoint is None:
            return
        latest = self.endpoint.read_policy()
        if latest is not None and latest != self.policy:
            self.apply_policy(latest)

    # -- hooks ------------------------------------------------------------------------
    def on_job_start(self, sim: MpiJobSimulator) -> None:
        self.nodes = list(sim.nodes)
        self._poll_endpoint()
        self.agent.startup(self.nodes, self.policy)

    def distribute_budget(self) -> None:
        # GEOPM delegates budget distribution to its agent; the base-class
        # even split is only used when the agent takes no power action.
        self.agent.startup(self.nodes, self.policy)

    def on_iteration_start(self, sim: MpiJobSimulator, iteration: int) -> None:
        super().on_iteration_start(sim, iteration)
        self._epoch_stats = {}
        self._poll_endpoint()

    def on_region_enter(self, sim: MpiJobSimulator, region: PhaseDemand, iteration: int) -> None:
        self.agent.on_region(sim.nodes, region)

    def on_region_exit(
        self,
        sim: MpiJobSimulator,
        region: PhaseDemand,
        iteration: int,
        records: Sequence[RegionRecord],
    ) -> None:
        for record in records:
            stats = self._epoch_stats.setdefault(
                record.hostname,
                {"duration_s": 0.0, "wait_s": 0.0, "energy_j": 0.0},
            )
            stats["duration_s"] += record.result.duration_s
            stats["wait_s"] += record.wait_s
            stats["energy_j"] += record.total_energy_j
            self._job_energy_j += record.total_energy_j
            self._job_runtime_s = max(self._job_runtime_s, sim.env.now)

    def on_iteration_end(self, sim: MpiJobSimulator, iteration: int) -> None:
        self._epoch_count += 1
        self.agent.adjust(sim.nodes, self._epoch_stats, self.policy)
        if self.endpoint is not None:
            self.endpoint.write_sample(self.sample())

    # -- reporting ---------------------------------------------------------------------
    def sample(self) -> Dict[str, float]:
        """The job-level sample GEOPM exposes through the endpoint."""
        durations = [s["duration_s"] + s["wait_s"] for s in self._epoch_stats.values()]
        power = 0.0
        if durations and max(durations) > 0:
            power = sum(s["energy_j"] for s in self._epoch_stats.values()) / max(durations)
        return {
            "epoch": float(self._epoch_count),
            "job_energy_j": self._job_energy_j,
            "job_power_w": power,
            "power_budget_w": self.policy.power_budget_w or 0.0,
        }

    def report(self) -> Dict[str, float]:
        data = super().report()
        data.update({f"agent_{k}": v for k, v in self.agent.report().items()})
        data["epochs"] = float(self._epoch_count)
        data["job_energy_j"] = self._job_energy_j
        return data
