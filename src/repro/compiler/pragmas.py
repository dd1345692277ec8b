"""Clang loop-transformation pragmas and the ytopt "mold code" mechanism.

The ytopt flow (§3.2.3) replaces the important parameters of a code with
symbols ``#P1 ... #Pm`` to produce a *mold code*; the autotuner fills in
values, the plopper compiles and runs the result.  :class:`MoldCode`
reproduces that substitution step textually (so the tuner's artefacts
look like the real flow's), and :class:`PragmaConfig` is the typed view
of one filled-in configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

__all__ = ["PragmaConfig", "MoldCode", "DEFAULT_MOLD_SOURCE"]


#: A miniature PolyBench-style kernel annotated with Clang loop pragmas,
#: with the tunable values replaced by #P symbols (the "mold code").
DEFAULT_MOLD_SOURCE = """\
// 3-deep loop nest with Clang transformation pragmas (mold code)
#pragma clang loop(i) tile size(#P1)
#pragma clang loop(j) tile size(#P2)
#pragma clang loop(k) tile size(#P3)
#pragma clang loop id(order) interchange permutation(#P4)
#pragma clang loop pack array(A) allocate(#P5)
#pragma clang loop(k) unroll_and_jam factor(#P6)
for (int i = 0; i < N; ++i)
  for (int j = 0; j < N; ++j)
    for (int k = 0; k < N; ++k)
      C[i][j] += A[i][k] * B[k][j];
"""


@dataclass(frozen=True)
class PragmaConfig:
    """One concrete assignment of the loop-transformation pragmas."""

    tile_i: int = 32
    tile_j: int = 32
    tile_k: int = 32
    interchange: str = "ijk"
    packing: bool = False
    unroll_jam: int = 1

    def __post_init__(self) -> None:
        for attr in ("tile_i", "tile_j", "tile_k"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1")
        if sorted(self.interchange) != ["i", "j", "k"]:
            raise ValueError("interchange must be a permutation of 'ijk'")
        if self.unroll_jam < 1:
            raise ValueError("unroll_jam must be >= 1")

    def as_symbols(self) -> Dict[str, Any]:
        """Map to the #P symbol namespace of the mold code."""
        return {
            "P1": self.tile_i,
            "P2": self.tile_j,
            "P3": self.tile_k,
            "P4": self.interchange,
            "P5": "on" if self.packing else "off",
            "P6": self.unroll_jam,
        }

    def as_parameters(self) -> Dict[str, Any]:
        """Map to the application parameter names of
        :class:`repro.apps.kernels.TileableKernel`."""
        return {
            "tile_i": self.tile_i,
            "tile_j": self.tile_j,
            "tile_k": self.tile_k,
            "interchange": self.interchange,
            "packing": self.packing,
            "unroll_jam": self.unroll_jam,
        }

    @classmethod
    def from_parameters(cls, params: Mapping[str, Any]) -> "PragmaConfig":
        return cls(
            tile_i=int(params.get("tile_i", 32)),
            tile_j=int(params.get("tile_j", 32)),
            tile_k=int(params.get("tile_k", 32)),
            interchange=str(params.get("interchange", "ijk")),
            packing=bool(params.get("packing", False)),
            unroll_jam=int(params.get("unroll_jam", 1)),
        )


class MoldCode:
    """A source file whose tunable values have been replaced by #P symbols."""

    SYMBOL_RE = re.compile(r"#P(\d+)")

    def __init__(self, source: str = DEFAULT_MOLD_SOURCE):
        self.source = source

    def symbols(self) -> List[str]:
        """The #P symbols present, in order of first appearance."""
        seen: List[str] = []
        for match in self.SYMBOL_RE.finditer(self.source):
            name = f"P{match.group(1)}"
            if name not in seen:
                seen.append(name)
        return seen

    def instantiate(self, values: Mapping[str, Any]) -> str:
        """Substitute symbol values, producing compilable source text.

        Raises ``KeyError`` if a symbol has no value (the ytopt flow treats
        that as a configuration error).
        """
        missing = [s for s in self.symbols() if s not in values]
        if missing:
            raise KeyError(f"missing values for symbols: {missing}")

        def replace(match: re.Match) -> str:
            return str(values[f"P{match.group(1)}"])

        return self.SYMBOL_RE.sub(replace, self.source)

    def instantiate_config(self, config: PragmaConfig) -> str:
        return self.instantiate(config.as_symbols())
