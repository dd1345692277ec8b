"""Simulated MPI job execution across allocated nodes.

This is the piece that stands in for "running the application on the
cluster".  A :class:`MpiJobSimulator` takes an
:class:`~repro.apps.base.Application`, a set of allocated
:class:`~repro.hardware.node.Node` objects and an optional job-level
runtime (anything implementing :class:`RuntimeHooks` — GEOPM, Conductor,
COUNTDOWN, MERIC, ... live in :mod:`repro.runtime`), and advances the
application phase by phase:

* each node executes the phase's :class:`~repro.hardware.workload.PhaseDemand`
  under its *current* knob settings (frequency, uncore, power cap),
* per-node load imbalance stretches some nodes' work, and the implicit
  barrier at the end of each region turns the difference into **MPI wait
  time** on the fast nodes — the slack Conductor/GEOPM steer power away
  from and COUNTDOWN down-clocks through,
* runtime hooks fire on job start, iteration boundaries and region
  boundaries so runtimes can retune knobs exactly where the real tools
  hook in (PMPI wrappers, GEOPM epochs, MERIC region instrumentation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.apps.base import Application
from repro.hardware.node import Node, NodePhaseResult
from repro.hardware.state import SPIN_DEMAND
from repro.hardware.workload import PhaseDemand
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.telemetry.counters import TelemetryAccumulator
from repro.telemetry.sampler import PowerTimeSeries

__all__ = ["RuntimeHooks", "RegionRecord", "JobResult", "MpiJobSimulator", "SPIN_DEMAND"]


class RuntimeHooks:
    """No-op hook interface implemented by job-level runtime systems.

    The :class:`MpiJobSimulator` calls these at the same points where the
    real tools intercept execution.  All methods are optional; the base
    class is a valid "no runtime attached" implementation.
    """

    def on_job_start(self, sim: "MpiJobSimulator") -> None:
        """Called once before any phase executes."""

    def on_iteration_start(self, sim: "MpiJobSimulator", iteration: int) -> None:
        """Called at the top of each main iteration."""

    def on_region_enter(
        self, sim: "MpiJobSimulator", region: PhaseDemand, iteration: int
    ) -> None:
        """Called before a region executes (MERIC/READEX hook point)."""

    def on_region_exit(
        self,
        sim: "MpiJobSimulator",
        region: PhaseDemand,
        iteration: int,
        records: Sequence["RegionRecord"],
    ) -> None:
        """Called after a region completes with per-node measurements."""

    def on_iteration_end(self, sim: "MpiJobSimulator", iteration: int) -> None:
        """Called at the bottom of each main iteration (EPOP elastic point)."""

    def on_job_end(self, sim: "MpiJobSimulator", result: "JobResult") -> None:
        """Called once after the job finishes."""

    def wait_power_w(
        self, sim: "MpiJobSimulator", node: Node, region: PhaseDemand, wait_s: float
    ) -> Optional[float]:
        """Power drawn by ``node`` while it waits at the region barrier.

        Return ``None`` to use the default busy-wait power (MPI spins at
        the current frequency, which is the waste COUNTDOWN removes).
        """
        return None


class RegionRecord(NamedTuple):
    """Per-node outcome of one region execution (a named tuple, like
    :class:`~repro.hardware.node.NodePhaseResult`)."""

    hostname: str
    region: str
    iteration: int
    result: NodePhaseResult
    wait_s: float
    wait_power_w: float

    @property
    def total_seconds(self) -> float:
        return self.result.duration_s + self.wait_s

    @property
    def total_energy_j(self) -> float:
        return self.result.energy_j + self.wait_s * self.wait_power_w


@dataclass
class JobResult:
    """Aggregated outcome of a simulated job."""

    job_id: str
    app_name: str
    params: Dict[str, Any]
    hostnames: List[str]
    runtime_s: float = 0.0
    energy_j: float = 0.0
    iterations_done: int = 0
    mpi_wait_s: float = 0.0
    per_node: Dict[str, TelemetryAccumulator] = field(default_factory=dict)
    region_records: List[RegionRecord] = field(default_factory=list)

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.runtime_s if self.runtime_s > 0 else 0.0

    @property
    def node_count(self) -> int:
        return len(self.hostnames)

    @property
    def average_ipc(self) -> float:
        accs = list(self.per_node.values())
        if not accs:
            return 0.0
        return float(np.mean([a.average_ipc for a in accs]))

    @property
    def average_flops(self) -> float:
        return float(sum(a.average_flops for a in self.per_node.values()))

    @property
    def ipc_per_watt(self) -> float:
        return self.average_ipc / self.average_power_w if self.average_power_w > 0 else 0.0

    @property
    def flops_per_watt(self) -> float:
        return self.average_flops / self.average_power_w if self.average_power_w > 0 else 0.0

    @property
    def energy_delay_product(self) -> float:
        return self.energy_j * self.runtime_s

    def metrics(self) -> Dict[str, float]:
        """Canonical metric dictionary for the performance database."""
        return {
            "runtime_s": self.runtime_s,
            "energy_j": self.energy_j,
            "power_w": self.average_power_w,
            "ipc": self.average_ipc,
            "flops": self.average_flops,
            "ipc_per_watt": self.ipc_per_watt,
            "flops_per_watt": self.flops_per_watt,
            "edp": self.energy_delay_product,
            "mpi_wait_s": self.mpi_wait_s,
        }

    def region_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-region aggregate runtime and energy (for Figure 5 style reports)."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.region_records:
            stats = out.setdefault(
                record.region, {"runtime_s": 0.0, "energy_j": 0.0, "count": 0.0}
            )
            stats["runtime_s"] += record.total_seconds
            stats["energy_j"] += record.total_energy_j
            stats["count"] += 1.0
        return out


# repro-lint: hot
def busy_wait_power_w(node: Node) -> float:
    """Default power drawn by a node spinning in an MPI wait loop, at its
    packages' current knobs and temperatures.

    A region reads the same value from its phase's
    ``NodePhaseResult.busy_wait_power_w``; this form serves wait hooks
    that scale it.
    """
    total = node.spec.platform_power_w
    for pkg in node.packages:
        total += pkg.busy_wait_power_w()
    return total


class MpiJobSimulator:
    """Runs one application job over a set of nodes inside a DES environment."""

    def __init__(
        self,
        env: Environment,
        nodes: Sequence[Node],
        application: Application,
        params: Optional[Mapping[str, Any]] = None,
        ranks_per_node: int = 1,
        hooks: Optional[RuntimeHooks] = None,
        streams: Optional[RandomStreams] = None,
        imbalance_sigma: float = 0.05,
        static_imbalance: float = 0.05,
        job_id: str = "job-0",
        threads_per_node: Optional[int] = None,
        max_iterations: Optional[int] = None,
        power_series: Optional[PowerTimeSeries] = None,
        static_skew: Optional[Mapping[str, float]] = None,
    ):
        if not nodes:
            raise ValueError("a job needs at least one node")
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        total_ranks = len(nodes) * ranks_per_node
        if not application.rank_constraint(total_ranks):
            raise ValueError(
                f"{application.name} cannot run with {total_ranks} ranks "
                f"({len(nodes)} nodes x {ranks_per_node} ranks/node)"
            )

        self.env = env
        self.nodes: List[Node] = list(nodes)
        self.application = application
        self.params = application.validate_parameters(dict(params or {}))
        self.ranks_per_node = int(ranks_per_node)
        self.hooks = hooks or RuntimeHooks()
        self.streams = streams or RandomStreams(0)
        self.imbalance_sigma = float(imbalance_sigma)
        self.static_imbalance = float(static_imbalance)
        self.job_id = job_id
        self.threads_per_node = threads_per_node
        self.max_iterations = max_iterations
        self.power_series = power_series

        self.telemetry: Dict[str, TelemetryAccumulator] = {}
        self.current_iteration = -1
        self._cancelled = False
        #: Per-node work multipliers.  Normally drawn from the RNG stream;
        #: an explicit mapping makes the decomposition imbalance reproducible
        #: across runs being compared (e.g. the GEOPM agent comparison).
        self._static_skew: Dict[str, float] = dict(static_skew or {})
        self._assign_static_skew(self.nodes)
        self._imbalance_rng = self.streams.stream(f"{job_id}.imbalance")

    # -- malleability ---------------------------------------------------------
    def resize(self, new_nodes: Sequence[Node]) -> None:
        """Replace the node set between iterations (invasive/malleable jobs)."""
        if not new_nodes:
            raise ValueError("cannot resize to zero nodes")
        total_ranks = len(new_nodes) * self.ranks_per_node
        if not self.application.rank_constraint(total_ranks):
            raise ValueError(
                f"{self.application.name} cannot run with {total_ranks} ranks"
            )
        self.nodes = list(new_nodes)
        self._assign_static_skew(self.nodes)

    def cancel(self) -> None:
        """Request job cancellation at the next iteration boundary."""
        self._cancelled = True

    def _assign_static_skew(self, nodes: Sequence[Node]) -> None:
        rng = self.streams.stream(f"{self.job_id}.static_imbalance")
        for node in nodes:
            if node.hostname not in self._static_skew:
                self._static_skew[node.hostname] = float(
                    1.0 + rng.uniform(0.0, self.static_imbalance)
                )

    # -- execution --------------------------------------------------------------
    # repro-lint: hot
    def _execute_region(self, demand: PhaseDemand, iteration: int) -> List[RegionRecord]:
        # The region runs at the thread count set before it; what the enter
        # hook sets applies from the next region on.
        hooks, threads = self.hooks, self.threads_per_node
        hooks.on_region_enter(self, demand, iteration)
        nodes = self.nodes

        # Every node's share: its static skew times a dynamic imbalance,
        # drawn for all nodes with one normal draw and one exp per region.
        sigma = self.imbalance_sigma
        if sigma > 0:
            dynamic = np.exp(self._imbalance_rng.normal(0.0, sigma, len(nodes))).tolist()
        else:
            dynamic = [1.0] * len(nodes)
        skew = self._static_skew
        comm_override = (
            demand.ref_seconds * demand.comm_fraction if demand.comm_fraction > 0 else None
        )
        results = [
            node.execute_phase(
                demand.scaled(skew.get(node.hostname, 1.0) * factor), threads, comm_override
            )
            for node, factor in zip(nodes, dynamic)
        ]

        region_duration = max(r.duration_s for r in results)
        name = demand.name
        wait_name = f"{name}.mpi_wait"
        telemetry = self.telemetry
        # Records are built with ``tuple.__new__``: a named tuple's own
        # ``__new__`` adds a Python frame per record.
        record = tuple.__new__
        records: List[RegionRecord] = []
        for node, result in zip(nodes, results):
            hostname = node.hostname
            wait = region_duration - result.duration_s
            wait_power = hooks.wait_power_w(self, node, demand, wait)
            if wait_power is None:
                wait_power = result.busy_wait_power_w
            records.append(record(RegionRecord, (hostname, name, iteration, result, wait, wait_power)))
            acc = telemetry.get(hostname)
            if acc is None:
                acc = telemetry[hostname] = TelemetryAccumulator()
            acc.record_phase(
                name, result.duration_s, result.power_w, result.ipc, result.flops,
                result.frequency_ghz, result.power_capped, wait_name, wait, wait_power,
            )
            # Average node power over the whole region (compute + wait).
            if region_duration > 0:
                node._state.node_current_power_w[node._node_index] = (
                    result.energy_j + wait * wait_power
                ) / region_duration

        if self.power_series is not None and region_duration > 0:
            total_energy = sum(r.total_energy_j for r in records)
            self.power_series.record(self.env.now, total_energy / region_duration)

        hooks.on_region_exit(self, demand, iteration, records)
        return records

    def run(self):
        """DES process generator: drive the job to completion.

        Yields simulation timeouts; returns a :class:`JobResult` (collect
        it with ``result = yield env.process(sim.run())``).
        """
        app, params = self.application, self.params
        result = JobResult(
            job_id=self.job_id,
            app_name=app.name,
            params=dict(params),
            hostnames=[n.hostname for n in self.nodes],
        )
        start_time = self.env.now
        self.hooks.on_job_start(self)

        all_records: List[RegionRecord] = []

        for demand in app.setup_phases(params, len(self.nodes), self.ranks_per_node):
            records = self._execute_region(demand, iteration=-1)
            all_records.extend(records)
            duration = max(r.total_seconds for r in records)
            yield self.env.timeout(duration)

        n_iter = app.iterations(params)
        if self.max_iterations is not None:
            n_iter = min(n_iter, self.max_iterations)

        # An app that runs the same phases every iteration builds them once
        # per node count (a resize can change it); one that overrides
        # ``iteration_phase_sequence`` builds each iteration's own.
        per_iteration = type(app).iteration_phase_sequence is not Application.iteration_phase_sequence
        phases: List[PhaseDemand] = []
        phases_nodes = 0
        completed = 0
        for iteration in range(n_iter):
            if self._cancelled:
                break
            self.current_iteration = iteration
            self.hooks.on_iteration_start(self, iteration)
            n_nodes = len(self.nodes)
            if per_iteration:
                phases = app.iteration_phase_sequence(
                    params, n_nodes, self.ranks_per_node, iteration
                )
            elif n_nodes != phases_nodes:
                phases = app.phase_sequence(params, n_nodes, self.ranks_per_node)
                phases_nodes = n_nodes
            for demand in phases:
                records = self._execute_region(demand, iteration)
                all_records.extend(records)
                duration = max(r.total_seconds for r in records)
                yield self.env.timeout(duration)
            completed += 1
            self.hooks.on_iteration_end(self, iteration)

        result.runtime_s = self.env.now - start_time
        result.iterations_done = completed
        result.region_records = all_records
        result.per_node = dict(self.telemetry)
        result.hostnames = [n.hostname for n in self.nodes]
        result.energy_j = sum(r.total_energy_j for r in all_records)
        result.mpi_wait_s = sum(r.wait_s for r in all_records)

        for node in self.nodes:
            node.current_power_w = node.idle_power_w()

        self.hooks.on_job_end(self, result)
        return result

    # -- convenience -------------------------------------------------------------
    @staticmethod
    def evaluate(
        nodes: Sequence[Node],
        application: Application,
        params: Optional[Mapping[str, Any]] = None,
        **kwargs: Any,
    ) -> JobResult:
        """One-shot helper: build an environment, run the job, return results.

        This is the evaluation path of the auto-tuners and use cases: each
        evaluation simulates one job standalone.
        """
        env = Environment()
        sim = MpiJobSimulator(env, nodes, application, params, **kwargs)
        return env.run(env.process(sim.run()))
