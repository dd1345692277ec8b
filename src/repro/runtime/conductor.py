"""Conductor: a run-time system for power-constrained HPC applications.

Use case 1 (§3.2.1) uses Conductor "to transparently optimize the
job-level power budget on the allocated nodes.  Conductor exposes control
parameters that impact the granularity and efficiency of its
power-balancing algorithm under the assigned job-level power limit."

Following Marathe et al. (ISC'15), the model has Conductor's two stages:

1. an **exploration** stage during the first few timesteps, where each
   node runs a small configuration sweep (thread count × power cap) to
   learn its own power/performance response, and
2. a **power reallocation** stage, where the job-level budget is
   periodically redistributed so that nodes on the critical path (least
   slack) receive more power and nodes with slack donate it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.apps.mpi import MpiJobSimulator, RegionRecord
from repro.hardware.workload import PhaseDemand
from repro.runtime.base import JobRuntime, register_runtime

__all__ = ["ConductorRuntime"]


@register_runtime
class ConductorRuntime(JobRuntime):
    """Power-balancing runtime under a job-level power budget."""

    name = "conductor"
    tunable_parameters = {
        "exploration_steps": [1, 2, 4, 8],
        "rebalance_interval": [1, 2, 4, 8],
        "step_fraction": [0.1, 0.25, 0.5],
        "thread_candidates": [(56,), (28, 56), (14, 28, 56)],
    }

    def __init__(
        self,
        power_budget_w: Optional[float] = None,
        exploration_steps: int = 2,
        rebalance_interval: int = 2,
        step_fraction: float = 0.25,
        thread_candidates: Sequence[int] = (28, 56),
    ):
        super().__init__(power_budget_w=power_budget_w)
        if exploration_steps < 0:
            raise ValueError("exploration_steps must be >= 0")
        if rebalance_interval < 1:
            raise ValueError("rebalance_interval must be >= 1")
        if not 0.0 < step_fraction <= 1.0:
            raise ValueError("step_fraction must be in (0, 1]")
        if not thread_candidates:
            raise ValueError("thread_candidates must not be empty")
        self.exploration_steps = int(exploration_steps)
        self.rebalance_interval = int(rebalance_interval)
        self.step_fraction = float(step_fraction)
        self.thread_candidates = tuple(int(t) for t in thread_candidates)

        self._caps: Dict[str, float] = {}
        self._epoch_stats: Dict[str, Dict[str, float]] = {}
        self._exploration_results: Dict[int, Dict[str, float]] = {}
        self.selected_threads: Optional[int] = None
        self.rebalances = 0

    # -- budget distribution --------------------------------------------------------
    def distribute_budget(self) -> None:
        if self._power_budget_w is None or not self.nodes:
            return
        if self._caps:
            # Preserve learned distribution, rescaled to the current budget.
            total = sum(self._caps.values())
            scale = self._power_budget_w / total if total > 0 else 1.0
            for node in self.nodes:
                cap = self._caps.get(node.hostname, self._power_budget_w / len(self.nodes))
                self._caps[node.hostname] = node.set_power_cap(cap * scale) or cap * scale
        else:
            share = self._power_budget_w / len(self.nodes)
            self._caps = {
                node.hostname: node.set_power_cap(share) or share for node in self.nodes
            }

    # -- hooks -------------------------------------------------------------------------
    def on_job_start(self, sim: MpiJobSimulator) -> None:
        super().on_job_start(sim)
        # Exploration stage: pick the thread count used for the whole job.
        # (The simulator applies ``threads_per_node``; candidate evaluation
        # happens over the first exploration epochs.)
        if self.exploration_steps > 0 and len(self.thread_candidates) > 1:
            sim.threads_per_node = self.thread_candidates[0]
            self.selected_threads = None
        else:
            self.selected_threads = self.thread_candidates[-1]
            sim.threads_per_node = self.selected_threads

    def on_iteration_start(self, sim: MpiJobSimulator, iteration: int) -> None:
        super().on_iteration_start(sim, iteration)
        self._epoch_stats = {}
        if self.selected_threads is None and iteration < len(self.thread_candidates):
            # Cycle through the thread candidates during exploration.
            sim.threads_per_node = self.thread_candidates[
                iteration % len(self.thread_candidates)
            ]

    def on_region_exit(
        self,
        sim: MpiJobSimulator,
        region: PhaseDemand,
        iteration: int,
        records: Sequence[RegionRecord],
    ) -> None:
        for record in records:
            stats = self._epoch_stats.setdefault(
                record.hostname, {"duration_s": 0.0, "wait_s": 0.0, "energy_j": 0.0}
            )
            stats["duration_s"] += record.result.duration_s
            stats["wait_s"] += record.wait_s
            stats["energy_j"] += record.total_energy_j

    def on_iteration_end(self, sim: MpiJobSimulator, iteration: int) -> None:
        epoch_time = max(
            (s["duration_s"] + s["wait_s"] for s in self._epoch_stats.values()), default=0.0
        )
        # Exploration bookkeeping: remember epoch time per thread candidate.
        if self.selected_threads is None:
            candidate = sim.threads_per_node or self.thread_candidates[-1]
            self._exploration_results[candidate] = {
                "epoch_s": epoch_time,
                "energy_j": sum(s["energy_j"] for s in self._epoch_stats.values()),
            }
            if iteration + 1 >= min(self.exploration_steps, len(self.thread_candidates)):
                best = min(
                    self._exploration_results.items(), key=lambda kv: kv[1]["epoch_s"]
                )
                self.selected_threads = int(best[0])
                sim.threads_per_node = self.selected_threads
            return

        if self._power_budget_w is None:
            return
        if (iteration + 1) % self.rebalance_interval != 0:
            return
        self._rebalance(sim)

    def _rebalance(self, sim: MpiJobSimulator) -> None:
        """Shift power from slack nodes to critical-path nodes."""
        budget = self._power_budget_w
        stats = self._epoch_stats
        if not stats or budget is None:
            return
        waits = {host: s["wait_s"] for host, s in stats.items()}
        busies = {host: s["duration_s"] for host, s in stats.items()}
        epoch = max((waits[h] + busies[h] for h in stats), default=0.0)
        if epoch <= 0:
            return

        caps = dict(self._caps)
        for node in sim.nodes:
            host = node.hostname
            current = caps.get(host, budget / len(sim.nodes))
            slack_fraction = waits.get(host, 0.0) / epoch
            # Slack nodes donate a fraction of their cap proportional to their
            # idle time; critical-path nodes (no slack) will pick it up in the
            # renormalisation below.
            caps[host] = current * (1.0 - self.step_fraction * slack_fraction)

        total = sum(caps.values())
        if total <= 0:
            return
        scale = budget / total
        for node in sim.nodes:
            host = node.hostname
            value = float(np.clip(caps[host] * scale, node.spec.min_power_w, node.max_power_w()))
            caps[host] = node.set_power_cap(value) or value
        self._caps = caps
        self.rebalances += 1

    # -- reporting -----------------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        data = super().report()
        data["rebalances"] = float(self.rebalances)
        data["selected_threads"] = float(self.selected_threads or 0)
        if self._caps:
            values = np.array(list(self._caps.values()))
            data["cap_spread_w"] = float(values.max() - values.min())
        return data
