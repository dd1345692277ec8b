"""Use case 7 (§3.2.7): running COUNTDOWN and MERIC together.

COUNTDOWN only exploits MPI communication phases; MERIC only exploits
the coarser instrumented regions (memory-bound vs compute-bound code).
The experiment runs an application with both kinds of opportunity under
(a) no runtime, (b) COUNTDOWN alone, (c) MERIC alone, and (d) both,
arbitrated by the :class:`~repro.runtime.coordination.RuntimeCoordinator`
so they never fight over the frequency knob.  The expected shape: the
coordinated pair saves at least as much energy as the better single
tool, with no conflict-induced slowdown.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.mpi import MpiJobSimulator, RuntimeHooks
from repro.experiments.registry import register_use_case
from repro.experiments.shared import make_cluster
from repro.runtime.coordination import RuntimeCoordinator
from repro.runtime.countdown import CountdownMode, CountdownRuntime
from repro.runtime.meric import MericRuntime, RegionConfig
from repro.sim.rng import RandomStreams

__all__ = ["run_use_case", "mixed_character_app"]


def mixed_character_app(n_iterations: int = 25) -> SyntheticApplication:
    """An app with compute-bound, memory-bound and MPI-bound regions."""
    phases = [
        make_phase("assemble", 0.7, kind="compute", ref_threads=56),
        make_phase("sparse_sweep", 0.9, kind="memory", ref_threads=56),
        make_phase("halo_exchange", 0.4, kind="mpi", comm_fraction=0.75, ref_threads=56),
        make_phase("io_checkpoint", 0.1, kind="io", ref_threads=56),
    ]
    return SyntheticApplication("mixed_character", phases, n_iterations=n_iterations)


def _meric_configs(low_freq_ghz: float = 1.4) -> Dict[str, RegionConfig]:
    """MERIC tuning table: down-clock the memory-bound and I/O regions."""
    return {
        "sparse_sweep": RegionConfig(core_freq_ghz=low_freq_ghz, uncore_freq_ghz=2.4),
        "io_checkpoint": RegionConfig(core_freq_ghz=low_freq_ghz),
    }


def _run(
    hooks: Optional[RuntimeHooks],
    label: str,
    n_nodes: int,
    seed: int,
    n_iterations: int,
    static_imbalance: float,
) -> Dict[str, float]:
    cluster = make_cluster(n_nodes, seed)
    nodes = cluster.nodes[:n_nodes]
    app = mixed_character_app(n_iterations)
    result = MpiJobSimulator.evaluate(
        nodes,
        app,
        {},
        hooks=hooks,
        streams=RandomStreams(seed),
        static_imbalance=static_imbalance,
        # Same job id across variants: identical imbalance pattern.
        job_id="uc7-mixed-character",
    )
    return {
        "runtime_s": result.runtime_s,
        "energy_j": result.energy_j,
        "power_w": result.average_power_w,
        "mpi_wait_s": result.mpi_wait_s,
    }


@register_use_case(
    "uc7",
    description="COUNTDOWN + MERIC coordinated by the runtime arbiter on one mixed app",
    objective_metric="energy_savings.coordinated",
    minimize=False,
)
def run_use_case(
    n_nodes: int = 4,
    seed: int = 8,
    n_iterations: int = 25,
    static_imbalance: float = 0.2,
) -> Dict[str, Any]:
    """Compare none / COUNTDOWN / MERIC / coordinated-both on one app."""
    runs: Dict[str, Dict[str, float]] = {}
    runs["none"] = _run(None, "none", n_nodes, seed, n_iterations, static_imbalance)
    runs["countdown"] = _run(
        CountdownRuntime(CountdownMode.WAIT_AND_COPY), "countdown",
        n_nodes, seed, n_iterations, static_imbalance,
    )
    runs["meric"] = _run(
        MericRuntime(region_configs=_meric_configs()), "meric",
        n_nodes, seed, n_iterations, static_imbalance,
    )
    coordinator = RuntimeCoordinator(
        [CountdownRuntime(CountdownMode.WAIT_AND_COPY), MericRuntime(region_configs=_meric_configs())]
    )
    runs["coordinated"] = _run(
        coordinator, "coordinated", n_nodes, seed, n_iterations, static_imbalance
    )

    baseline_energy = runs["none"]["energy_j"]
    baseline_runtime = runs["none"]["runtime_s"]
    savings = {
        name: 1.0 - run["energy_j"] / baseline_energy if baseline_energy > 0 else 0.0
        for name, run in runs.items()
    }
    slowdowns = {
        name: run["runtime_s"] / baseline_runtime - 1.0 if baseline_runtime > 0 else 0.0
        for name, run in runs.items()
    }
    return {
        "runs": runs,
        "energy_savings": savings,
        "slowdowns": slowdowns,
        "conflicts_prevented": coordinator.conflicts_prevented,
        "coordinated_beats_individual": savings["coordinated"]
        >= max(savings["countdown"], savings["meric"]) - 0.02,
    }
