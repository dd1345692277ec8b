"""Plopper: the compile-and-run evaluator of the ytopt flow (Figure 4).

In the real ytopt framework, *plopper* takes the mold code, substitutes
the parameter values chosen by the autotuner, compiles the result and
executes it to obtain the execution time.  Here the "execution" is a
simulated run of the tileable kernel on a node, so the plopper composes
three layers:

1. :class:`~repro.compiler.pragmas.MoldCode` substitution (textual),
2. :class:`~repro.compiler.clang.ClangToolchain` compilation (flag-level
   efficiency + compile time),
3. :class:`~repro.apps.kernels.TileableKernel` execution on a
   :class:`~repro.hardware.node.Node` (optionally under a power cap),

and reports runtime, power and energy — the three metrics the §3.2.3
use case optimises.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from repro.apps.kernels import TileableKernel
from repro.apps.mpi import MpiJobSimulator
from repro.compiler.clang import ClangToolchain, OptimizationLevel
from repro.compiler.pragmas import MoldCode, PragmaConfig
from repro.hardware.node import Node
from repro.sim.rng import RandomStreams
from repro.telemetry.database import PerformanceDatabase

__all__ = ["Plopper"]


class Plopper:
    """Evaluates one pragma/compiler/system configuration end to end."""

    def __init__(
        self,
        nodes: Sequence[Node],
        kernel: Optional[TileableKernel] = None,
        toolchain: Optional[ClangToolchain] = None,
        mold: Optional[MoldCode] = None,
        node_power_cap_w: Optional[float] = None,
        database: Optional[PerformanceDatabase] = None,
        include_compile_time: bool = False,
        streams: Optional[RandomStreams] = None,
    ):
        if not nodes:
            raise ValueError("the plopper needs at least one node")
        self.nodes = list(nodes)
        self.kernel = kernel or TileableKernel()
        self.toolchain = toolchain or ClangToolchain(level=OptimizationLevel.O3)
        self.mold = mold or MoldCode()
        self.node_power_cap_w = node_power_cap_w
        self.database = database if database is not None else PerformanceDatabase("plopper")
        self.include_compile_time = include_compile_time
        self.streams = streams or RandomStreams(0)
        self.evaluations = 0

    # -- configuration handling --------------------------------------------------------
    def _split_config(self, config: Mapping[str, Any]) -> tuple:
        """Separate pragma, compiler and system knobs from a flat config."""
        pragma = PragmaConfig.from_parameters(config)
        level = OptimizationLevel(config.get("opt_level", self.toolchain.level.value))
        extra = []
        if config.get("march_native", False):
            extra.append("-march=native")
        if config.get("fast_math", False):
            extra.append("-ffast-math")
        toolchain = ClangToolchain(level=level, extra_flags=tuple(extra))
        threads = config.get("threads")
        freq = config.get("frequency_ghz")
        cap = config.get("node_power_cap_w", self.node_power_cap_w)
        return pragma, toolchain, threads, freq, cap

    # -- evaluation ----------------------------------------------------------------------
    def evaluate(self, config: Mapping[str, Any]) -> Dict[str, float]:
        """Compile + run one configuration; returns the metric dictionary."""
        pragma, toolchain, threads, freq, cap = self._split_config(config)
        source = self.mold.instantiate_config(pragma)  # noqa: F841 - fidelity artefact
        compiled = toolchain.compile(pragma, jit=bool(config.get("jit", False)))

        # The compiler's efficiency multiplier scales the kernel's base time.
        kernel = TileableKernel(
            problem_n=self.kernel.problem_n,
            datatype_bytes=self.kernel.datatype_bytes,
            l2_kib_per_core=self.kernel.l2_kib_per_core,
            n_iterations=self.kernel.n_iterations,
            base_seconds=self.kernel.base_seconds / compiled.efficiency_multiplier,
        )

        for node in self.nodes:
            node.allocated_to = None
            node.set_power_cap(cap)
            if freq is not None:
                node.set_frequency(float(freq))
            else:
                node.set_frequency(node.spec.cpu.freq_base_ghz)

        result = MpiJobSimulator.evaluate(
            self.nodes,
            kernel,
            pragma.as_parameters(),
            streams=self.streams.spawn(f"plopper-{self.evaluations}"),
            job_id=f"plopper-{self.evaluations}",
            threads_per_node=int(threads) if threads else None,
        )
        self.evaluations += 1

        metrics = result.metrics()
        if self.include_compile_time:
            metrics["runtime_s"] += compiled.compile_time_s
        metrics["compile_time_s"] = compiled.compile_time_s
        metrics["code_efficiency"] = compiled.efficiency_multiplier
        self.database.add_evaluation(
            config=dict(config),
            metrics=metrics,
            objective=metrics["runtime_s"],
            elapsed_s=metrics["runtime_s"],
            kernel=self.kernel.name,
        )
        return metrics

    def __call__(self, config: Mapping[str, Any]) -> Dict[str, float]:
        return self.evaluate(config)

    # -- parameter space ------------------------------------------------------------------
    def parameter_space(self) -> Dict[str, list]:
        """Flat tunable space (pragmas + compiler flags + system knobs)."""
        space: Dict[str, list] = {k: list(v) for k, v in self.kernel.parameter_space().items()}
        space.update({k: list(v) for k, v in self.toolchain.flag_space().items()})
        space["threads"] = [14, 28, 56]
        space["frequency_ghz"] = [1.2, 1.6, 2.0, 2.4, 2.8, 3.2]
        return space
