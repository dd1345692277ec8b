"""ESPRESO-FETI-like regioned solver (use case 4, Figure 5).

The READEX/MERIC use case tunes the ESPRESO FETI solver: the application
is instrumented with a set of nested regions (Figure 5 shows the region
graph), and the tool suite finds the best hardware configuration (core
frequency, uncore frequency, thread count) and application parameters
(solver, preconditioner, domain size) *per region*.

:class:`EspresoFeti` reproduces that structure: a preprocessing/assembly
stage, a factorisation stage, and a CG iteration loop whose sub-regions
have deliberately different compute/memory/communication characters —
which is exactly why per-region tuning beats one global setting.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Sequence

from repro.apps.base import Application
from repro.hardware.workload import PhaseDemand

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["EspresoFeti", "FETI_REGIONS"]

#: Region graph of the instrumented solver (parent -> children), mirroring
#: the structure of Figure 5 in the paper.
FETI_REGIONS: Dict[str, Sequence[str]] = {
    "espreso": ("preprocessing", "feti_solve", "postprocessing"),
    "preprocessing": ("assemble_K", "assemble_B1", "cluster_gluing"),
    "feti_solve": ("factorize_K", "cg_loop", "gather_solution"),
    "cg_loop": ("apply_prec", "mult_F", "dot_products", "projector"),
    "postprocessing": ("store_results",),
}


class EspresoFeti(Application):
    """FETI domain-decomposition solver with region-level instrumentation."""

    name = "espreso_feti"

    def __init__(self, elements_per_node: int = 400_000):
        if elements_per_node <= 0:
            raise ValueError("elements_per_node must be positive")
        self.elements_per_node = int(elements_per_node)

    # -- tunable surface ---------------------------------------------------------
    def parameter_space(self) -> Dict[str, Sequence[Any]]:
        return {
            "feti_method": ["TOTAL_FETI", "HYBRID_FETI"],
            "preconditioner": ["NONE", "LUMPED", "DIRICHLET"],
            "iterative_solver": ["PCG", "pipePCG", "GMRES"],
            "domain_size": [400, 800, 1600, 3200, 6400],
        }

    def default_parameters(self) -> Dict[str, Any]:
        return {
            "feti_method": "TOTAL_FETI",
            "preconditioner": "LUMPED",
            "iterative_solver": "PCG",
            "domain_size": 1600,
        }

    # -- region graph ---------------------------------------------------------------
    @staticmethod
    def region_graph() -> nx.DiGraph:
        """The instrumented region graph (Figure 5)."""
        import networkx as nx  # only the region graph needs it

        graph = nx.DiGraph()
        for parent, children in FETI_REGIONS.items():
            for child in children:
                graph.add_edge(parent, child)
        return graph

    # -- convergence model -------------------------------------------------------------
    def cg_iterations(self, params: Mapping[str, Any]) -> int:
        params = self.validate_parameters(params)
        base = {"PCG": 140, "pipePCG": 150, "GMRES": 120}[params["iterative_solver"]]
        prec = {"NONE": 1.8, "LUMPED": 1.0, "DIRICHLET": 0.55}[params["preconditioner"]]
        # Smaller subdomains -> more subdomains -> better conditioning of the
        # coarse problem but a larger interface.
        domain = int(params["domain_size"])
        domain_factor = 0.75 + 0.25 * math.log2(domain / 400) / 4.0 * 3.0
        hybrid = 0.85 if params["feti_method"] == "HYBRID_FETI" else 1.0
        return max(10, int(round(base * prec * domain_factor * hybrid)))

    def iterations(self, params: Mapping[str, Any]) -> int:
        return self.cg_iterations(params)

    # -- cost model ----------------------------------------------------------------------
    def _scale(self, nodes: int) -> float:
        return self.elements_per_node / 400_000.0

    def setup_phases(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        params = self.validate_parameters(params)
        scale = self._scale(nodes)
        domain = int(params["domain_size"])
        # Larger subdomains mean fewer, bigger factorisations: more compute
        # dense and more expensive overall.
        factor_cost = 2.2 * scale * (domain / 1600) ** 0.6
        dirichlet_extra = 1.5 if params["preconditioner"] == "DIRICHLET" else 1.0
        return [
            PhaseDemand(
                "assemble_K", 1.6 * scale, core_fraction=0.45, memory_fraction=0.42,
                comm_fraction=0.03, flops_per_second_ref=3e11, ops_per_cycle_ref=1.3,
                activity_factor=0.8, dram_intensity=0.6, ref_threads=56,
            ),
            PhaseDemand(
                "assemble_B1", 0.7 * scale, core_fraction=0.3, memory_fraction=0.55,
                comm_fraction=0.08, flops_per_second_ref=1.5e11, ops_per_cycle_ref=0.9,
                activity_factor=0.65, dram_intensity=0.75, ref_threads=56,
            ),
            PhaseDemand(
                "cluster_gluing", 0.4 * scale, core_fraction=0.2, memory_fraction=0.4,
                comm_fraction=0.3, flops_per_second_ref=6e10, ops_per_cycle_ref=0.6,
                activity_factor=0.5, dram_intensity=0.4, ref_threads=56,
                tags={"mpi_call": "Alltoallv"},
            ),
            PhaseDemand(
                "factorize_K", factor_cost * dirichlet_extra, core_fraction=0.8,
                memory_fraction=0.14, comm_fraction=0.0, flops_per_second_ref=1.1e12,
                ops_per_cycle_ref=2.4, activity_factor=1.0, dram_intensity=0.25,
                ref_threads=56,
            ),
        ]

    def phase_sequence(
        self, params: Mapping[str, Any], nodes: int, ranks_per_node: int
    ) -> List[PhaseDemand]:
        params = self.validate_parameters(params)
        scale = self._scale(nodes)
        domain = int(params["domain_size"])
        comm_growth = 1.0 + 0.1 * math.log2(max(nodes, 1)) if nodes > 1 else 1.0

        prec_cost = {"NONE": 0.005, "LUMPED": 0.02, "DIRICHLET": 0.055}[params["preconditioner"]]
        prec_core = {"NONE": 0.2, "LUMPED": 0.3, "DIRICHLET": 0.65}[params["preconditioner"]]
        # Larger subdomains make the per-iteration solve (mult_F) heavier and
        # more compute-dense; smaller ones shift work to the interface/comm.
        multf_cost = 0.06 * scale * (domain / 1600) ** 0.35
        interface_comm = 0.25 * (1600 / domain) ** 0.3

        phases = [
            PhaseDemand(
                "apply_prec", prec_cost * scale, core_fraction=prec_core,
                memory_fraction=0.85 - prec_core, comm_fraction=0.02,
                flops_per_second_ref=2.5e11, ops_per_cycle_ref=1.0,
                activity_factor=0.6 + 0.3 * prec_core, dram_intensity=0.8 - 0.4 * prec_core,
                ref_threads=56,
            ),
            PhaseDemand(
                "mult_F", multf_cost, core_fraction=0.62, memory_fraction=0.28,
                comm_fraction=min(0.4, 0.06 * comm_growth), flops_per_second_ref=7e11,
                ops_per_cycle_ref=1.9, activity_factor=0.92, dram_intensity=0.4,
                ref_threads=56,
            ),
            PhaseDemand(
                "dot_products", 0.012 * scale,
                core_fraction=0.18, memory_fraction=0.35,
                comm_fraction=min(0.6, interface_comm * comm_growth),
                flops_per_second_ref=9e10, ops_per_cycle_ref=0.6,
                activity_factor=0.5, dram_intensity=0.5, ref_threads=56,
                tags={"mpi_call": "Allreduce"},
            ),
            PhaseDemand(
                "projector", 0.018 * scale, core_fraction=0.25, memory_fraction=0.45,
                comm_fraction=min(0.5, 0.2 * comm_growth), flops_per_second_ref=1.4e11,
                ops_per_cycle_ref=0.8, activity_factor=0.55, dram_intensity=0.6,
                ref_threads=56, tags={"mpi_call": "Allgather"},
            ),
        ]
        if params["feti_method"] == "HYBRID_FETI":
            # The cluster-level coarse problem adds a small compute region but
            # reduces the global communication (already reflected in iterations).
            phases.append(
                PhaseDemand(
                    "cluster_coarse_solve", 0.01 * scale, core_fraction=0.7,
                    memory_fraction=0.2, comm_fraction=0.05, flops_per_second_ref=5e11,
                    ops_per_cycle_ref=1.8, activity_factor=0.9, dram_intensity=0.3,
                    ref_threads=56,
                )
            )
        return phases
