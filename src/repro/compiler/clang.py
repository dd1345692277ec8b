"""Clang-like compiler toolchain model.

The system-software layer's tunables (Table 1) include compiler
optimisation flags.  The model maps a flag set to

* a **code efficiency multiplier** applied to the compute-bound part of
  the generated kernel (vectorisation, unrolling, FMA contraction), and
* a **compile time**, which matters for JIT-at-relaunch decisions
  (§3.1.1 "just-in-time (JIT) compilation of the application to relaunch
  the job").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Sequence

from repro.compiler.pragmas import PragmaConfig

__all__ = ["OptimizationLevel", "CompileResult", "ClangToolchain"]


class OptimizationLevel(str, Enum):
    """Standard optimisation levels."""

    O0 = "-O0"
    O1 = "-O1"
    O2 = "-O2"
    O3 = "-O3"
    OFAST = "-Ofast"


#: Baseline code-efficiency multiplier per optimisation level (relative to -O2).
_LEVEL_EFFICIENCY: Dict[OptimizationLevel, float] = {
    OptimizationLevel.O0: 0.30,
    OptimizationLevel.O1: 0.70,
    OptimizationLevel.O2: 1.00,
    OptimizationLevel.O3: 1.12,
    OptimizationLevel.OFAST: 1.18,
}

#: Relative compile-time cost per optimisation level.
_LEVEL_COMPILE_COST: Dict[OptimizationLevel, float] = {
    OptimizationLevel.O0: 0.4,
    OptimizationLevel.O1: 0.7,
    OptimizationLevel.O2: 1.0,
    OptimizationLevel.O3: 1.6,
    OptimizationLevel.OFAST: 1.7,
}

#: Extra flags and their effect (efficiency multiplier, compile-time multiplier).
_EXTRA_FLAGS: Dict[str, tuple] = {
    "-march=native": (1.08, 1.05),
    "-ffast-math": (1.05, 1.0),
    "-funroll-loops": (1.03, 1.1),
    "-flto": (1.04, 1.8),
    "-fno-vectorize": (0.72, 0.95),
}


@dataclass(frozen=True)
class CompileResult:
    """Outcome of compiling one kernel configuration."""

    efficiency_multiplier: float
    compile_time_s: float
    flags: tuple
    pragmas: PragmaConfig
    jit: bool = False

    def __post_init__(self) -> None:
        if self.efficiency_multiplier <= 0:
            raise ValueError("efficiency_multiplier must be positive")
        if self.compile_time_s < 0:
            raise ValueError("compile_time_s must be >= 0")


@dataclass
class ClangToolchain:
    """A compiler instance with a default flag set."""

    level: OptimizationLevel = OptimizationLevel.O2
    extra_flags: tuple = ()
    base_compile_time_s: float = 20.0
    #: JIT compilation trades lower optimisation headroom for fast rebuilds.
    jit_efficiency_penalty: float = 0.97
    jit_speedup: float = 6.0

    def __post_init__(self) -> None:
        for flag in self.extra_flags:
            if flag not in _EXTRA_FLAGS:
                raise ValueError(f"unknown flag {flag!r}; known: {sorted(_EXTRA_FLAGS)}")

    def compile(
        self,
        pragmas: PragmaConfig | None = None,
        jit: bool = False,
    ) -> CompileResult:
        """Compile a kernel and return the efficiency/compile-time outcome.

        The pragma quality itself is evaluated by the application model
        (:class:`repro.apps.kernels.TileableKernel`); the toolchain only
        contributes the flag-level multiplier, so the two compose.
        """
        pragmas = pragmas or PragmaConfig()
        efficiency = _LEVEL_EFFICIENCY[self.level]
        compile_cost = _LEVEL_COMPILE_COST[self.level]
        for flag in self.extra_flags:
            eff_mult, time_mult = _EXTRA_FLAGS[flag]
            efficiency *= eff_mult
            compile_cost *= time_mult
        compile_time = self.base_compile_time_s * compile_cost
        if jit:
            efficiency *= self.jit_efficiency_penalty
            compile_time /= self.jit_speedup
        return CompileResult(
            efficiency_multiplier=efficiency,
            compile_time_s=compile_time,
            flags=(self.level.value, *self.extra_flags),
            pragmas=pragmas,
            jit=jit,
        )

    def flag_space(self) -> Dict[str, Sequence]:
        """The compiler-level tunable space for the co-tuning framework."""
        return {
            "opt_level": [lvl.value for lvl in OptimizationLevel],
            "march_native": [False, True],
            "fast_math": [False, True],
        }
