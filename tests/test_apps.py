"""Tests for the application models and the MPI job simulator."""

import math

import pytest

from repro.apps.base import Application, SyntheticApplication, make_phase
from repro.apps.espreso import EspresoFeti
from repro.apps.generator import JobRequest, WorkloadGenerator
from repro.apps.hypre import HypreLaplacian
from repro.apps.kernels import TileableKernel
from repro.apps.lulesh import LuleshProxy
from repro.apps.mpi import MpiJobSimulator, RuntimeHooks
from repro.apps.stream import DgemmKernel, StreamTriad
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams


@pytest.fixture()
def cluster():
    return Cluster(ClusterSpec(n_nodes=4), seed=2)


def simple_app(iterations=3):
    return SyntheticApplication(
        "simple",
        [make_phase("compute", 0.5, kind="compute", ref_threads=56),
         make_phase("halo", 0.1, kind="mpi", comm_fraction=0.7, ref_threads=56)],
        n_iterations=iterations,
    )


# -- base / make_phase -----------------------------------------------------------


def test_make_phase_kinds():
    compute = make_phase("c", 1.0, kind="compute")
    memory = make_phase("m", 1.0, kind="memory")
    assert compute.core_fraction > memory.core_fraction
    assert memory.memory_fraction > compute.memory_fraction
    with pytest.raises(ValueError):
        make_phase("x", 1.0, kind="nonsense")


def test_make_phase_comm_fraction_scales_body():
    phase = make_phase("p", 1.0, kind="mixed", comm_fraction=0.5)
    assert phase.comm_fraction == pytest.approx(0.5)
    total = phase.core_fraction + phase.memory_fraction + phase.comm_fraction
    assert total <= 1.0 + 1e-9


def test_application_parameter_validation():
    app = HypreLaplacian()
    params = app.validate_parameters({"solver": "GMRES"})
    assert params["solver"] == "GMRES"
    assert params["preconditioner"] == "BoomerAMG"  # default filled in
    with pytest.raises(KeyError):
        app.validate_parameters({"bogus": 1})
    with pytest.raises(ValueError):
        app.validate_parameters({"solver": "SuperLU"})


def test_synthetic_application_strong_scaling():
    app = simple_app()
    one = app.phase_sequence({}, nodes=1, ranks_per_node=1)
    four = app.phase_sequence({}, nodes=4, ranks_per_node=1)
    assert four[0].ref_seconds < one[0].ref_seconds
    # Communication does not shrink: the MPI phase keeps a larger share.
    assert four[1].comm_fraction >= one[1].comm_fraction


def test_synthetic_application_rank_multiple():
    app = SyntheticApplication("r", [make_phase("c", 1.0)], rank_multiple=4)
    assert app.rank_constraint(8)
    assert not app.rank_constraint(6)


def test_application_describe():
    description = HypreLaplacian().describe()
    assert description["name"] == "hypre_laplacian27"
    assert "solver" in description["parameters"]


# -- Hypre ------------------------------------------------------------------------


def test_hypre_amg_converges_in_fewer_iterations():
    app = HypreLaplacian()
    amg = app.solver_iterations({"preconditioner": "BoomerAMG"})
    jacobi = app.solver_iterations({"preconditioner": "Jacobi"})
    assert amg < jacobi


def test_hypre_threshold_weakens_hierarchy():
    app = HypreLaplacian()
    tight = app.solver_iterations({"preconditioner": "BoomerAMG", "strong_threshold": 0.25})
    loose = app.solver_iterations({"preconditioner": "BoomerAMG", "strong_threshold": 0.9})
    assert loose > tight


def test_hypre_setup_phase_depends_on_preconditioner():
    app = HypreLaplacian()
    amg_setup = app.setup_phases({"preconditioner": "BoomerAMG"}, 1, 1)
    jacobi_setup = app.setup_phases({"preconditioner": "Jacobi"}, 1, 1)
    assert amg_setup[0].ref_seconds > jacobi_setup[0].ref_seconds


def test_hypre_phase_fractions_valid_for_all_preconditioners():
    app = HypreLaplacian()
    for precond in ("BoomerAMG", "ParaSails", "Jacobi", "Euclid"):
        for nodes in (1, 4, 16):
            for phase in app.phase_sequence({"preconditioner": precond}, nodes, 1):
                total = phase.core_fraction + phase.memory_fraction + phase.comm_fraction
                assert total <= 1.0 + 1e-9


# -- ESPRESO / LULESH / kernels / stream ----------------------------------------------


def test_espreso_region_graph_matches_phases():
    graph = EspresoFeti.region_graph()
    assert "cg_loop" in graph
    leaves = {n for n in graph.nodes if graph.out_degree(n) == 0}
    phase_names = {p.name for p in EspresoFeti().phase_sequence({}, 2, 1)}
    assert phase_names & leaves


def test_espreso_preconditioner_tradeoff():
    app = EspresoFeti()
    none_iters = app.cg_iterations({"preconditioner": "NONE"})
    dirichlet_iters = app.cg_iterations({"preconditioner": "DIRICHLET"})
    assert dirichlet_iters < none_iters
    # but Dirichlet setup (factorisation) is more expensive
    none_setup = sum(p.ref_seconds for p in app.setup_phases({"preconditioner": "NONE"}, 2, 1))
    dir_setup = sum(
        p.ref_seconds for p in app.setup_phases({"preconditioner": "DIRICHLET"}, 2, 1)
    )
    assert dir_setup > none_setup


def test_lulesh_requires_cubic_ranks():
    app = LuleshProxy()
    assert app.rank_constraint(1)
    assert app.rank_constraint(8)
    assert app.rank_constraint(27)
    assert not app.rank_constraint(6)
    assert [r for r in range(1, 31) if app.rank_constraint(r)] == [1, 8, 27]


def test_kernel_efficiency_prefers_good_configuration():
    kernel = TileableKernel()
    good = kernel.efficiency(
        {"tile_i": 64, "tile_j": 64, "tile_k": 64, "interchange": "ikj", "unroll_jam": 4}
    )
    bad = kernel.efficiency(
        {"tile_i": 4, "tile_j": 4, "tile_k": 4, "interchange": "kji", "unroll_jam": 1}
    )
    assert good > 2 * bad
    assert 0 < bad <= 1.0 and 0 < good <= 1.0


def test_kernel_packing_helps_oversized_tiles():
    kernel = TileableKernel()
    base = {"tile_i": 128, "tile_j": 128, "tile_k": 128, "interchange": "ikj", "unroll_jam": 4}
    without = kernel.efficiency({**base, "packing": False})
    with_packing = kernel.efficiency({**base, "packing": True})
    assert with_packing > without


def test_stream_is_memory_bound_dgemm_compute_bound():
    stream_phase = StreamTriad().phase_sequence({}, 1, 1)[0]
    dgemm_phase = DgemmKernel().phase_sequence({}, 1, 1)[0]
    assert stream_phase.memory_fraction > stream_phase.core_fraction
    assert dgemm_phase.core_fraction > dgemm_phase.memory_fraction


# -- MPI simulator -----------------------------------------------------------------------


def test_simulator_requires_nodes_and_valid_ranks(cluster):
    env = Environment()
    with pytest.raises(ValueError):
        MpiJobSimulator(env, [], simple_app())
    with pytest.raises(ValueError):
        MpiJobSimulator(env, cluster.nodes[:3], LuleshProxy())  # 3 ranks not cubic


def test_simulator_runs_and_reports(cluster):
    result = MpiJobSimulator.evaluate(
        cluster.nodes[:2], simple_app(4), streams=RandomStreams(1), job_id="t1"
    )
    assert result.iterations_done == 4
    assert result.runtime_s > 0
    assert result.energy_j > 0
    assert result.average_power_w > 0
    assert set(result.hostnames) == {n.hostname for n in cluster.nodes[:2]}
    metrics = result.metrics()
    assert metrics["runtime_s"] == pytest.approx(result.runtime_s)


def test_simulator_imbalance_creates_wait(cluster):
    result = MpiJobSimulator.evaluate(
        cluster.nodes[:4], simple_app(4), streams=RandomStreams(1),
        static_imbalance=0.3, job_id="t2",
    )
    assert result.mpi_wait_s > 0


def test_simulator_explicit_skew_is_deterministic(cluster):
    skew = {n.hostname: 1.0 + 0.1 * i for i, n in enumerate(cluster.nodes[:2])}
    a = MpiJobSimulator.evaluate(
        cluster.nodes[:2], simple_app(3), streams=RandomStreams(5),
        static_imbalance=0.0, imbalance_sigma=0.0, static_skew=skew, job_id="t3",
    )
    b = MpiJobSimulator.evaluate(
        cluster.nodes[:2], simple_app(3), streams=RandomStreams(5),
        static_imbalance=0.0, imbalance_sigma=0.0, static_skew=skew, job_id="t3",
    )
    assert a.runtime_s == pytest.approx(b.runtime_s)


def test_simulator_hooks_called_in_order(cluster):
    calls = []

    class Recorder(RuntimeHooks):
        def on_job_start(self, sim):
            calls.append("job_start")

        def on_iteration_start(self, sim, iteration):
            calls.append(f"iter_start_{iteration}")

        def on_region_enter(self, sim, region, iteration):
            calls.append("enter")

        def on_region_exit(self, sim, region, iteration, records):
            calls.append("exit")

        def on_iteration_end(self, sim, iteration):
            calls.append(f"iter_end_{iteration}")

        def on_job_end(self, sim, result):
            calls.append("job_end")

    MpiJobSimulator.evaluate(
        cluster.nodes[:1], simple_app(2), hooks=Recorder(), job_id="t4"
    )
    assert calls[0] == "job_start"
    assert calls[-1] == "job_end"
    assert calls.count("enter") == calls.count("exit") == 4  # 2 iterations x 2 phases
    assert "iter_start_0" in calls and "iter_end_1" in calls


def test_simulator_max_iterations_cap(cluster):
    result = MpiJobSimulator.evaluate(
        cluster.nodes[:1], simple_app(10), max_iterations=3, job_id="t5"
    )
    assert result.iterations_done == 3


def test_simulator_region_summary(cluster):
    result = MpiJobSimulator.evaluate(cluster.nodes[:1], simple_app(2), job_id="t6")
    summary = result.region_summary()
    assert "compute" in summary and "halo" in summary
    assert summary["compute"]["count"] == 2.0


def test_simulator_cancel_stops_at_iteration_boundary(cluster):
    class Canceller(RuntimeHooks):
        def on_iteration_end(self, sim, iteration):
            if iteration == 1:
                sim.cancel()

    result = MpiJobSimulator.evaluate(
        cluster.nodes[:1], simple_app(10), hooks=Canceller(), job_id="t7"
    )
    assert result.iterations_done == 2


def test_simulator_resize_between_iterations(cluster):
    class Resizer(RuntimeHooks):
        def on_iteration_end(self, sim, iteration):
            if iteration == 0:
                sim.resize(cluster.nodes[:4])

    result = MpiJobSimulator.evaluate(
        cluster.nodes[:2], simple_app(3), hooks=Resizer(), job_id="t8"
    )
    assert len(result.hostnames) == 4


def test_power_cap_slows_job_but_cuts_power(cluster):
    app = simple_app(4)
    free = MpiJobSimulator.evaluate(
        cluster.nodes[:2], app, streams=RandomStreams(3), job_id="t9"
    )
    for node in cluster.nodes[:2]:
        node.release()
        node.set_power_cap(250.0)
    capped = MpiJobSimulator.evaluate(
        cluster.nodes[:2], app, streams=RandomStreams(3), job_id="t9"
    )
    assert capped.runtime_s > free.runtime_s
    assert capped.average_power_w < free.average_power_w


# -- workload generator ---------------------------------------------------------------------


def test_job_request_validation():
    with pytest.raises(ValueError):
        JobRequest("j", StreamTriad(), nodes_requested=0)
    with pytest.raises(ValueError):
        JobRequest("j", StreamTriad(), nodes_requested=2, nodes_min=4, nodes_max=2)


@pytest.mark.parametrize(
    "field, value",
    [
        ("walltime_estimate_s", math.nan),
        ("walltime_estimate_s", math.inf),
        ("walltime_estimate_s", -math.inf),
        ("arrival_time_s", math.nan),
        ("arrival_time_s", math.inf),
        ("arrival_time_s", -math.inf),
    ],
)
def test_job_request_rejects_non_finite_times(field, value):
    """A NaN estimate would break the EASY reservation's release order."""
    with pytest.raises(ValueError, match=field):
        JobRequest("j", StreamTriad(), **{field: value})


def test_job_request_accepts_a_huge_finite_estimate():
    assert JobRequest("j", StreamTriad(), walltime_estimate_s=1e308).walltime_estimate_s == 1e308


def test_job_request_acceptable_node_counts_respects_constraint():
    request = JobRequest(
        "j", LuleshProxy(), nodes_requested=8, nodes_min=1, nodes_max=27, malleable=True
    )
    assert request.acceptable_node_counts() == [1, 8, 27]


def test_workload_generator_deterministic_and_valid():
    gen_a = WorkloadGenerator(RandomStreams(4), max_nodes_per_job=8)
    gen_b = WorkloadGenerator(RandomStreams(4), max_nodes_per_job=8)
    jobs_a = gen_a.generate(15)
    jobs_b = gen_b.generate(15)
    assert [j.application.name for j in jobs_a] == [j.application.name for j in jobs_b]
    arrivals = [j.arrival_time_s for j in jobs_a]
    assert arrivals == sorted(arrivals)
    assert all(j.nodes_requested <= 8 for j in jobs_a)
    assert len({j.job_id for j in jobs_a}) == 15
    # every request can actually start with its preferred node count
    assert all(
        j.application.rank_constraint(j.nodes_requested * j.ranks_per_node) for j in jobs_a
    )
