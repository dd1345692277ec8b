"""Use case 6 (§3.2.6): co-tuning SLURM and COUNTDOWN.

COUNTDOWN's promise is *performance-neutral* energy saving in MPI
phases.  The experiment runs two workloads — a communication-heavy
application (large MPI fraction, load imbalance) and a compute-bound
application (almost no MPI) — under each COUNTDOWN configuration level
the resource manager can select at job start (profile only, wait-only,
wait-and-copy), and reports energy saving and slowdown against the
profile-only baseline.  The expected shape: meaningful savings at
near-zero slowdown for the communication-heavy app, negligible savings
for the compute-bound one, and the aggressive mode saving the most at a
slightly higher slowdown.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.base import SyntheticApplication, make_phase
from repro.apps.mpi import MpiJobSimulator
from repro.experiments.registry import register_use_case
from repro.experiments.shared import make_cluster
from repro.runtime.countdown import CountdownMode, CountdownRuntime
from repro.sim.rng import RandomStreams

__all__ = ["run_use_case", "countdown_sweep"]


def _mpi_heavy_app(n_iterations: int = 25) -> SyntheticApplication:
    phases = [
        make_phase("solve", 0.8, kind="mixed", ref_threads=56),
        make_phase("halo_exchange", 0.5, kind="mpi", comm_fraction=0.75, ref_threads=56),
        make_phase("allreduce", 0.3, kind="mpi", comm_fraction=0.85, ref_threads=56),
    ]
    return SyntheticApplication("mpi_heavy", phases, n_iterations=n_iterations)


def _compute_bound_app(n_iterations: int = 25) -> SyntheticApplication:
    phases = [
        make_phase("kernel", 1.2, kind="compute", ref_threads=56),
        make_phase("reduce", 0.05, kind="mpi", comm_fraction=0.6, ref_threads=56),
    ]
    return SyntheticApplication("compute_bound", phases, n_iterations=n_iterations)


def countdown_sweep(
    app: SyntheticApplication,
    n_nodes: int = 4,
    seed: int = 7,
    static_imbalance: float = 0.25,
) -> List[Dict[str, Any]]:
    """Run one application under every COUNTDOWN mode."""
    rows: List[Dict[str, Any]] = []
    for mode in CountdownMode:
        cluster = make_cluster(n_nodes, seed)
        nodes = cluster.nodes[:n_nodes]
        runtime = CountdownRuntime(mode=mode)
        result = MpiJobSimulator.evaluate(
            nodes,
            app,
            {},
            hooks=runtime,
            streams=RandomStreams(seed),
            static_imbalance=static_imbalance,
            # Same job id for every mode so the imbalance pattern (and thus
            # the wait time COUNTDOWN can exploit) is identical.
            job_id=f"uc6-{app.name}",
        )
        report = runtime.report()
        rows.append(
            {
                "mode": mode.value,
                "runtime_s": result.runtime_s,
                "energy_j": result.energy_j,
                "power_w": result.average_power_w,
                "mpi_fraction": report["mpi_fraction"],
                "wait_time_s": report["wait_time_s"],
            }
        )
    return rows


@register_use_case(
    "uc6",
    description="SLURM + COUNTDOWN: energy saving on MPI-heavy vs compute-bound apps",
    objective_metric="summary.mpi_heavy_wait_and_copy_saving",
    minimize=False,
)
def run_use_case(n_nodes: int = 4, seed: int = 7, n_iterations: int = 25) -> Dict[str, Any]:
    """Compare COUNTDOWN modes on MPI-heavy vs compute-bound applications."""
    results: Dict[str, Any] = {}
    for label, app in (
        ("mpi_heavy", _mpi_heavy_app(n_iterations)),
        ("compute_bound", _compute_bound_app(n_iterations)),
    ):
        rows = countdown_sweep(app, n_nodes=n_nodes, seed=seed)
        baseline = next(r for r in rows if r["mode"] == CountdownMode.PROFILE_ONLY.value)
        for row in rows:
            row["energy_saving"] = (
                1.0 - row["energy_j"] / baseline["energy_j"] if baseline["energy_j"] > 0 else 0.0
            )
            row["slowdown"] = (
                row["runtime_s"] / baseline["runtime_s"] - 1.0
                if baseline["runtime_s"] > 0
                else 0.0
            )
        results[label] = rows

    def saving(label: str, mode: CountdownMode) -> float:
        return next(r["energy_saving"] for r in results[label] if r["mode"] == mode.value)

    results["summary"] = {
        "mpi_heavy_wait_only_saving": saving("mpi_heavy", CountdownMode.WAIT_ONLY),
        "mpi_heavy_wait_and_copy_saving": saving("mpi_heavy", CountdownMode.WAIT_AND_COPY),
        "compute_bound_wait_and_copy_saving": saving("compute_bound", CountdownMode.WAIT_AND_COPY),
        "mpi_heavy_wait_only_slowdown": next(
            r["slowdown"] for r in results["mpi_heavy"] if r["mode"] == CountdownMode.WAIT_ONLY.value
        ),
    }
    return results
