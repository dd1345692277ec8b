"""Site-level policies: power budget, corridor, per-job power policy modes.

Figure 3 of the paper shows "how facility-level power policies filter
down into job-level granularity": the site has a procured power budget
and contractual corridor; each system gets a share; the resource manager
turns that share into per-job power budgets and GEOPM policies.  This
module holds the policy objects and the budget-translation arithmetic
(the system→job step of the end-to-end translation chain; the
job→node→component steps live in the runtimes and node manager).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional

from repro.runtime.geopm import GeopmPolicy
from repro.telemetry.database import PerformanceDatabase

__all__ = ["JobPowerPolicy", "SitePolicies", "GeopmPolicyMode", "PolicyAssigner"]


class JobPowerPolicy(str, Enum):
    """How the RM turns the system budget into per-job budgets."""

    #: No job budgets — jobs run uncapped (the throughput-oblivious baseline).
    UNLIMITED = "unlimited"
    #: Every allocated node gets the same share of the system budget.
    UNIFORM = "uniform"
    #: Each job's budget is proportional to its node count (equal W/node),
    #: computed against the *procured* budget rather than current usage.
    PROPORTIONAL = "proportional"


class GeopmPolicyMode(str, Enum):
    """The three GEOPM site-policy modes of §3.2.2."""

    STATIC_SITEWIDE = "static_sitewide"
    JOB_SPECIFIC = "job_specific"
    DYNAMIC = "dynamic"


@dataclass
class SitePolicies:
    """Site- and system-level power policy configuration."""

    #: Procured power for the system (W).
    system_power_budget_w: float = 50_000.0
    #: Power corridor (lower, upper) bound the site must stay inside (W).
    #: ``None`` disables corridor enforcement.
    corridor_lower_w: Optional[float] = None
    corridor_upper_w: Optional[float] = None
    #: Averaging window over which the budget/corridor is measured (s).
    averaging_window_s: float = 60.0
    #: How per-job power budgets are derived.
    job_power_policy: JobPowerPolicy = JobPowerPolicy.PROPORTIONAL
    #: Fraction of the system budget held back for idle nodes and safety.
    reserve_fraction: float = 0.05
    #: GEOPM policy mode used at job launch.
    geopm_mode: GeopmPolicyMode = GeopmPolicyMode.STATIC_SITEWIDE
    #: Default GEOPM policy (static sitewide mode).
    default_geopm_policy: GeopmPolicy = field(
        default_factory=lambda: GeopmPolicy(agent="power_governor")
    )

    def __post_init__(self) -> None:
        if self.system_power_budget_w <= 0:
            raise ValueError("system_power_budget_w must be positive")
        if self.averaging_window_s <= 0:
            raise ValueError("averaging_window_s must be positive")
        if not 0.0 <= self.reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        if (
            self.corridor_lower_w is not None
            and self.corridor_upper_w is not None
            and self.corridor_lower_w >= self.corridor_upper_w
        ):
            raise ValueError("corridor_lower_w must be below corridor_upper_w")

    # -- budget arithmetic -----------------------------------------------------------
    @property
    def schedulable_power_w(self) -> float:
        """Power available to jobs after the reserve."""
        return self.system_power_budget_w * (1.0 - self.reserve_fraction)

    def job_budget_w(
        self,
        job_nodes: int,
        total_nodes: int,
        committed_power_w: float,
        node_tdp_w: float,
        node_min_w: float,
    ) -> Optional[float]:
        """Power budget for a job asking for ``job_nodes`` nodes.

        Returns ``None`` for the UNLIMITED policy.  Returns a budget even
        if it is currently infeasible; the scheduler checks feasibility
        against ``committed_power_w`` separately.
        """
        if job_nodes <= 0 or total_nodes <= 0:
            raise ValueError("node counts must be positive")
        if self.job_power_policy is JobPowerPolicy.UNLIMITED:
            return None
        if self.job_power_policy is JobPowerPolicy.PROPORTIONAL:
            per_node = self.schedulable_power_w / total_nodes
        else:  # UNIFORM: share what is left right now evenly over the job's nodes
            remaining = max(0.0, self.schedulable_power_w - committed_power_w)
            per_node = remaining / job_nodes if job_nodes else 0.0
        per_node = min(per_node, node_tdp_w)
        per_node = max(per_node, node_min_w)
        return per_node * job_nodes


class PolicyAssigner:
    """Produces the GEOPM policy for each job launch (Figure 3).

    * STATIC_SITEWIDE — every job gets the site default policy with its
      proportional share of power.
    * JOB_SPECIFIC — the assigner first consults a historical database
      mapping applications to known-good policy parameters (§3.2.2's
      "sites typically maintain a database that maps applications to
      specific policy parameters").
    * DYNAMIC — the policy is updated while the job runs through the
      GEOPM endpoint; at launch it starts from the static policy.
    """

    def __init__(
        self,
        policies: SitePolicies,
        history: Optional[PerformanceDatabase] = None,
    ):
        self.policies = policies
        self.history = history if history is not None else PerformanceDatabase("geopm-policies")
        self.assignments: Dict[str, GeopmPolicy] = {}

    # No src caller; kept for §3.2.2 job-specific policy database.
    def record_good_policy(  # repro-lint: disable=RL006
        self, app_name: str, policy: GeopmPolicy, metrics: Mapping[str, float]
    ) -> None:
        """Store a known-good policy for an application (job-specific mode)."""
        self.history.add_evaluation(
            config={
                "agent": policy.agent,
                "power_budget_w": policy.power_budget_w,
                "frequency_ghz": policy.frequency_ghz,
                "perf_degradation": policy.perf_degradation,
            },
            metrics=dict(metrics),
            objective=metrics.get("energy_j", 0.0),
            app=app_name,
        )

    def assign(self, job_id: str, app_name: str, job_budget_w: Optional[float]) -> GeopmPolicy:
        """Build the launch policy for one job."""
        base = self.policies.default_geopm_policy
        if self.policies.geopm_mode is GeopmPolicyMode.JOB_SPECIFIC:
            best = self.history.best_for(app=app_name)
            if best is not None:
                base = GeopmPolicy(
                    agent=str(best.config.get("agent", base.agent)),
                    power_budget_w=best.config.get("power_budget_w"),
                    frequency_ghz=best.config.get("frequency_ghz"),
                    perf_degradation=float(
                        best.config.get("perf_degradation", base.perf_degradation)
                    ),
                    source="job_db",
                )
        if job_budget_w is not None:
            base = base.with_budget(job_budget_w)
        if self.policies.geopm_mode is GeopmPolicyMode.DYNAMIC:
            base = GeopmPolicy(
                agent=base.agent,
                power_budget_w=base.power_budget_w,
                frequency_ghz=base.frequency_ghz,
                perf_degradation=base.perf_degradation,
                source="dynamic",
            )
        self.assignments[job_id] = base
        return base
