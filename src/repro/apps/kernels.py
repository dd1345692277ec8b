"""Tileable loop-nest kernels for the ytopt / Clang-pragma use case.

Use case 3 (§3.2.3, Figure 4) tunes Clang loop-transformation pragmas —
tiling, interchange, packing, unroll-and-jam — on PolyBench-style
kernels.  :class:`TileableKernel` models such a loop nest: the pragma
parameters determine how well the working set fits the cache hierarchy
and how much instruction-level parallelism the inner loop exposes, which
in turn sets the compute/memory split and the reference duration of the
kernel's single hot region.

The model is intentionally smooth with one broad optimum plus mild
interaction terms, so search algorithms have something realistic to
chew on (large plateau, boundary cliffs, parameter interactions).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Sequence

from repro.apps.base import Application
from repro.hardware.workload import PhaseDemand

__all__ = ["TileableKernel", "TILE_SIZES", "INTERCHANGE_ORDERS", "UNROLL_FACTORS"]

#: Allowed tile sizes per dimension (#P1..#P3 in the ytopt mold code).
TILE_SIZES: Sequence[int] = (4, 8, 16, 32, 64, 96, 128)
#: Allowed loop orders (#P4).
INTERCHANGE_ORDERS: Sequence[str] = ("ijk", "ikj", "jik", "jki", "kij", "kji")
#: Allowed unroll-and-jam factors (#P6).
UNROLL_FACTORS: Sequence[int] = (1, 2, 4, 8, 16)


class TileableKernel(Application):
    """A blocked 3-deep loop nest (matmul/stencil-like) with pragma knobs."""

    name = "tileable_kernel"

    def __init__(
        self,
        problem_n: int = 1024,
        datatype_bytes: int = 8,
        l2_kib_per_core: int = 256,
        n_iterations: int = 5,
        base_seconds: float = 4.0,
    ):
        if problem_n <= 0:
            raise ValueError("problem_n must be positive")
        base_seconds = float(base_seconds)
        if not 0.0 < base_seconds < math.inf:
            raise ValueError("base_seconds must be finite and positive")
        self.problem_n = int(problem_n)
        self.datatype_bytes = int(datatype_bytes)
        self.l2_kib_per_core = int(l2_kib_per_core)
        self.n_iterations = int(n_iterations)
        self.base_seconds = base_seconds

    # -- tunable surface -------------------------------------------------------
    def parameter_space(self) -> Dict[str, Sequence[Any]]:
        return {
            "tile_i": list(TILE_SIZES),
            "tile_j": list(TILE_SIZES),
            "tile_k": list(TILE_SIZES),
            "interchange": list(INTERCHANGE_ORDERS),
            "packing": [False, True],
            "unroll_jam": list(UNROLL_FACTORS),
        }

    def default_parameters(self) -> Dict[str, Any]:
        return {
            "tile_i": 32,
            "tile_j": 32,
            "tile_k": 32,
            "interchange": "ijk",
            "packing": False,
            "unroll_jam": 1,
        }

    def iterations(self, params: Mapping[str, Any]) -> int:
        return self.n_iterations

    # -- performance model -------------------------------------------------------
    def _cache_fit_quality(self, params: Mapping[str, Any]) -> float:
        """How well a tile's working set matches L2 (1.0 = ideal)."""
        ti, tj, tk = int(params["tile_i"]), int(params["tile_j"]), int(params["tile_k"])
        working_set_kib = (ti * tj + tj * tk + ti * tk) * self.datatype_bytes / 1024.0
        target = 0.5 * self.l2_kib_per_core
        # Log-distance from the sweet spot: too small wastes reuse, too big thrashes.
        distance = abs(math.log2(max(working_set_kib, 1e-3) / target))
        quality = math.exp(-0.5 * (distance / 1.6) ** 2)
        if working_set_kib > self.l2_kib_per_core and not params.get("packing", False):
            # Thrashing without packing is much worse than the symmetric model.
            quality *= 0.55
        return quality

    def _stride_quality(self, params: Mapping[str, Any]) -> float:
        """Unit-stride friendliness of the loop order."""
        order = str(params["interchange"])
        ranking = {"ikj": 1.0, "ijk": 0.85, "kij": 0.8, "jik": 0.6, "jki": 0.45, "kji": 0.4}
        return ranking.get(order, 0.5)

    def _ilp_quality(self, params: Mapping[str, Any]) -> float:
        """Benefit of unroll-and-jam (register pressure bites at the top end)."""
        factor = int(params["unroll_jam"])
        benefit = {1: 0.7, 2: 0.85, 4: 1.0, 8: 0.92, 16: 0.7}
        return benefit.get(factor, 0.7)

    def efficiency(self, params: Mapping[str, Any]) -> float:
        """Overall achieved fraction of peak for a configuration, in (0, 1]."""
        params = self.validate_parameters(params)
        cache = self._cache_fit_quality(params)
        stride = self._stride_quality(params)
        ilp = self._ilp_quality(params)
        packing_overhead = 0.95 if params.get("packing", False) else 1.0
        # Interaction: good tiling amplifies the value of unroll-and-jam.
        interaction = 0.9 + 0.1 * cache * ilp
        eff = cache * (0.55 + 0.45 * stride) * (0.6 + 0.4 * ilp) * packing_overhead * interaction
        return max(0.05, min(1.0, eff))

    def phase_sequence(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        params = self.validate_parameters(params)
        eff = self.efficiency(params)
        seconds = self.base_seconds / (max(nodes, 1) * eff)
        # Poor cache behaviour shows up as memory-bound time.
        cache = self._cache_fit_quality(params)
        memory_fraction = 0.15 + 0.55 * (1.0 - cache)
        core_fraction = max(0.1, 0.95 - memory_fraction)
        return [
            PhaseDemand(
                name="loop_nest",
                ref_seconds=seconds,
                core_fraction=core_fraction,
                memory_fraction=memory_fraction,
                comm_fraction=0.0,
                flops_per_second_ref=1.2e12 * eff,
                ops_per_cycle_ref=1.0 + 1.5 * eff,
                activity_factor=0.75 + 0.25 * eff,
                dram_intensity=0.2 + 0.7 * (1.0 - cache),
                serial_fraction=0.02,
                ref_threads=56,
            )
        ]
