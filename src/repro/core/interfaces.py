"""Standardised layer descriptions, terminology and component registry.

These registries are the machine-readable version of the paper's three
survey tables:

* :data:`LAYERS` — Table 1: per-layer objectives, telemetry, control
  parameters and methods,
* :data:`TERMS` — Table 3: definitions of the terms used by the
  end-to-end framework,
* :data:`EXISTING_COMPONENTS` — Table 2: the existing tools at each
  layer and the module of this package that re-implements each one.

Keeping them as data (rather than prose) lets the benchmarks regenerate
the tables directly from the code that implements the behaviour, so the
tables stay truthful as the framework evolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["LayerDescription", "LAYERS", "TERMS", "EXISTING_COMPONENTS", "layer_names"]


@dataclass(frozen=True)
class LayerDescription:
    """One row of Table 1."""

    name: str
    actors: Tuple[str, ...]
    objectives: Tuple[str, ...]
    telemetry: Tuple[str, ...]
    control_parameters: Tuple[str, ...]
    methods: Tuple[str, ...]


LAYERS: Dict[str, LayerDescription] = {
    "site": LayerDescription(
        name="site",
        actors=("facility manager", "electric grid / utility"),
        objectives=(
            "stay within the procured power band (power corridor)",
            "minimise energy cost across systems",
        ),
        telemetry=("site power", "ambient/water temperature", "energy price"),
        control_parameters=("per-system power budgets", "cooling setpoints"),
        methods=("contractual power bands", "demand response"),
    ),
    "system": LayerDescription(
        name="system (resource manager / job scheduler)",
        actors=("SLURM-like RM", "invasive RM"),
        objectives=(
            "maximise job throughput under the system power budget",
            "guaranteed rate of change / bounds on system power",
            "thermal-constrained performance optimisation",
        ),
        telemetry=(
            "per-node power and energy",
            "node temperatures",
            "queue wait times",
            "node utilisation",
            "job power budgets in use",
        ),
        control_parameters=(
            "number of nodes per job (moldable jobs)",
            "which nodes to select (variation / thermal aware)",
            "which job to run or backfill",
            "job power budgets",
            "job pause / resume / cancel / relaunch",
            "binary dependency selection",
        ),
        methods=(
            "power-aware scheduling and backfilling",
            "per-job power budget assignment",
            "dynamic resource redistribution (malleable jobs)",
            "idle node shutdown",
        ),
    ),
    "job": LayerDescription(
        name="job / runtime system",
        actors=("GEOPM", "Conductor", "COUNTDOWN", "MERIC/READEX", "EPOP"),
        objectives=(
            "power-constrained performance optimisation",
            "performance-constrained energy optimisation",
            "energy efficiency with bounded performance degradation",
        ),
        telemetry=(
            "job power / energy (RAPL)",
            "per-region runtime and IPC",
            "MPI wait and copy time",
            "application progress (epochs)",
        ),
        control_parameters=(
            "per-node power caps",
            "core frequency (P-states)",
            "uncore frequency",
            "thread count / concurrency throttling",
            "per-region configurations",
            "runtime aggressiveness level",
        ),
        methods=(
            "power balancing across nodes",
            "frequency scaling in MPI phases",
            "per-region best-configuration replay",
            "agent-based policy plugins",
        ),
    ),
    "application": LayerDescription(
        name="application",
        actors=("application developer", "application-level tuner (ytopt)"),
        objectives=(
            "minimise time to solution",
            "maximise calculations per timestep per watt",
        ),
        telemetry=("application progress metric", "per-phase timings", "solver iterations"),
        control_parameters=(
            "solver / preconditioner / smoother choices",
            "domain decomposition and blocking factors",
            "loop transformation parameters (tile, interchange, unroll)",
            "input deck options",
            "#threads / #processes",
        ),
        methods=(
            "algorithmic selection",
            "autotuning with surrogate models",
            "application-level instrumentation (ATP/regions)",
        ),
    ),
    "node": LayerDescription(
        name="node / hardware",
        actors=("node-level manager", "firmware"),
        objectives=(
            "enforce the node power cap",
            "stay below thermal limits",
        ),
        telemetry=(
            "RAPL energy counters",
            "package/DRAM power",
            "die temperature",
            "hardware performance counters (IPC, FLOPS)",
        ),
        control_parameters=(
            "RAPL power limits (package, DRAM)",
            "P-states / core frequency",
            "uncore frequency",
            "duty-cycle modulation (T-states)",
            "GPU frequency and power caps",
        ),
        methods=("RAPL capping", "DVFS governors", "duty cycling", "thermal throttling"),
    ),
    "system_software": LayerDescription(
        name="system software (compiler toolchain, MPI/OpenMP libraries)",
        actors=("compiler", "library maintainers"),
        objectives=("maximise generated-code efficiency", "minimise communication overhead"),
        telemetry=("compile time", "code efficiency (achieved FLOP rate)"),
        control_parameters=(
            "optimisation flags",
            "loop transformation pragmas",
            "JIT-enable parameters",
            "MPI / OpenMP library variant",
        ),
        methods=("flag tuning", "pragma autotuning (ytopt)", "JIT at relaunch"),
    ),
}


#: Table 3: definitions of terms.
TERMS: Dict[str, str] = {
    "tuning": (
        "Improving the target metric through better handling of available control "
        "parameters and configuration options without violating operating constraints."
    ),
    "co-tuning": (
        "Improving the target metrics of two or more layers of the PowerStack by "
        "incorporating cross-layer characteristics in the orchestration process."
    ),
    "end-to-end auto-tuning": (
        "Holistic co-tuning of all layers of the PowerStack."
    ),
    "control parameter": (
        "A knob exposed by a layer that affects performance, power or energy and can "
        "be set by an actor at that layer or the layer above."
    ),
    "telemetry": (
        "Measured or derived metrics reported by a layer to the layers above."
    ),
    "actor": "The software or human agent that owns the control parameters of a layer.",
    "power constraint": "A power limit applied and measured over a time window.",
    "energy goal": "An energy target assigned and measured over a job execution or system uptime.",
    "power corridor": (
        "Lower and upper bounds on site/system power usage within a specified time window."
    ),
    "power budget": "The share of the procured power assigned to a system, job or node.",
    "moldable job": (
        "A job whose resource allocation can be chosen at launch between a user-provided "
        "minimum and maximum, but not changed afterwards."
    ),
    "malleable job": "A job whose resource allocation can be changed while it runs.",
    "resource manager": (
        "The system-level software that allocates nodes and power to jobs and enforces "
        "site policies (e.g. SLURM)."
    ),
    "runtime system": (
        "The job-level software that manages power and performance of a running job "
        "(e.g. GEOPM, Conductor, COUNTDOWN, MERIC)."
    ),
    "endpoint": (
        "The shared-memory gateway between a persistent resource-manager daemon and the "
        "job-level power-management daemon."
    ),
    "job-aware interaction": (
        "An RM/runtime interaction that takes job behaviour (profiles or runtime telemetry) "
        "into account when applying power management decisions."
    ),
    "job-agnostic interaction": (
        "An RM/runtime interaction that is transparent to the application and does not use "
        "job behaviour."
    ),
}


#: Table 2: existing tools per layer and the module implementing our analogue.
EXISTING_COMPONENTS: Dict[str, List[Tuple[str, str]]] = {
    "system (resource manager / job scheduler)": [
        ("SLURM (power-aware plugin)", "repro.resource_manager.slurm.PowerAwareScheduler"),
        ("Invasive Resource Manager (IRM)", "repro.resource_manager.irm.InvasiveResourceManager"),
        ("PowerSched / power-aware backfilling", "repro.resource_manager.queue.JobQueue"),
    ],
    "job-level runtime system": [
        ("GEOPM", "repro.runtime.geopm.GeopmRuntime"),
        ("Conductor", "repro.runtime.conductor.ConductorRuntime"),
        ("COUNTDOWN", "repro.runtime.countdown.CountdownRuntime"),
        ("MERIC", "repro.runtime.meric.MericRuntime"),
        ("READEX / Periscope Tuning Framework", "repro.runtime.readex.ReadexTuner"),
        ("EPOP / Invasive MPI", "repro.runtime.epop.EpopRuntime"),
    ],
    "node-level management": [
        ("RAPL / msr-safe", "repro.hardware.rapl.RaplInterface"),
        ("cpufreq / DVFS governors", "repro.node_mgmt.dvfs.DvfsGovernor"),
        ("duty-cycle modulation runtime", "repro.node_mgmt.dutycycle.DutyCycleModulator"),
        ("node monitoring daemons", "repro.node_mgmt.monitor.NodeMonitor"),
    ],
    "application-level tuning": [
        ("ytopt (Clang pragma autotuning)", "repro.core.tuner.Autotuner"),
        ("plopper", "repro.compiler.plopper.Plopper"),
        ("ATP / application parameter plugins", "repro.runtime.readex.AtpParameter"),
        ("Hypre parameter selection", "repro.apps.hypre.HypreLaplacian"),
    ],
}


def layer_names() -> List[str]:
    return list(LAYERS)
