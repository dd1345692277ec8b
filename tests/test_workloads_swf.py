"""Workload-trace layer: SWF parsing/round-trip, workload specs, and
arrival-order stability (hypothesis) for the trace-ingestion path."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import Cluster, ClusterSpec
from repro.resource_manager.policies import SitePolicies
from repro.resource_manager.slurm import PowerAwareScheduler, SchedulerConfig
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.workloads.replay import TraceReplayApplication
from repro.workloads.spec import parse_workload_spec, workload_requests
from repro.workloads.swf import (
    SwfJob,
    SwfParseError,
    SwfTrace,
    parse_swf,
    read_swf,
    requests_to_swf,
    swf_to_requests,
    write_swf,
)
from repro.workloads.synth import synthesize_replay_trace

GOOD_LINE = "1 10 5 120 4 -1 -1 4 300 -1 1 7 2 3 1 1 -1 -1"


def swf_job(job_id=1, submit=10.0, run=120.0, procs=4, req_time=300.0, **over):
    fields = dict(
        job_id=job_id, submit_time_s=submit, wait_time_s=-1.0, run_time_s=run,
        allocated_procs=procs, avg_cpu_time_s=-1.0, used_memory_kb=-1.0,
        requested_procs=procs, requested_time_s=req_time,
        requested_memory_kb=-1.0, status=1, user_id=7, group_id=-1,
        executable_id=3, queue_id=1, partition_id=1, preceding_job_id=-1,
        think_time_s=-1.0,
    )
    fields.update(over)
    return SwfJob(**fields)


# -- parsing ---------------------------------------------------------------------------


def test_parse_swf_header_and_fields():
    text = [
        "; Computer: test-cluster",
        "; MaxNodes: 64",
        "",
        GOOD_LINE,
    ]
    trace = parse_swf(text)
    assert trace.header == ("Computer: test-cluster", "MaxNodes: 64")
    (job,) = trace.jobs
    assert job.job_id == 1 and job.submit_time_s == 10.0
    assert job.run_time_s == 120.0 and job.allocated_procs == 4
    assert job.user_id == 7 and job.think_time_s == -1.0


def test_parse_swf_malformed_line_raises_with_line_number():
    with pytest.raises(SwfParseError, match="line 2.*expected 18 fields"):
        parse_swf(["; header", "1 10 5"])
    with pytest.raises(SwfParseError, match="line 1.*not a number"):
        parse_swf([GOOD_LINE.replace("120", "fast")])
    with pytest.raises(SwfParseError, match="non-finite"):
        parse_swf([GOOD_LINE.replace("120", "nan")])


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_parse_swf_non_finite_requested_time_raises_or_is_skipped(raw):
    hostile = GOOD_LINE.replace(" 300 ", f" {raw} ")
    with pytest.raises(SwfParseError, match="line 2.*requested_time_s.*non-finite"):
        parse_swf([GOOD_LINE, hostile])
    trace = parse_swf([GOOD_LINE, hostile, GOOD_LINE], on_error="skip")
    assert len(trace.jobs) == 2
    assert [line for line, _ in trace.skipped] == [2]
    assert all(math.isfinite(r.walltime_estimate_s) for r in swf_to_requests(trace))


def test_parse_swf_skip_mode_records_dropped_lines():
    trace = parse_swf(["1 10 5", GOOD_LINE, "x " + GOOD_LINE], on_error="skip")
    assert len(trace.jobs) == 1
    assert [line for line, _ in trace.skipped] == [1, 3]
    with pytest.raises(ValueError, match="on_error"):
        parse_swf([GOOD_LINE], on_error="ignore")


def test_swf_file_round_trip(tmp_path):
    original = SwfTrace(
        header=("Computer: rt", "Note: synthetic"),
        jobs=(swf_job(1), swf_job(2, submit=20.5, run=61.25, procs=128)),
    )
    path = str(tmp_path / "trace.swf")
    write_swf(path, original)
    back = read_swf(path)
    assert back.header == original.header
    assert back.jobs == original.jobs


# -- request conversion ----------------------------------------------------------------


def test_swf_to_requests_conversion_rules():
    trace = SwfTrace(
        header=(),
        jobs=(
            swf_job(1, submit=0.0, procs=96, req_time=600.0),
            swf_job(2, submit=30.0, run=0.0),  # never ran: dropped
            swf_job(3, submit=10.0, procs=0, allocated_procs=0,
                    requested_procs=0),  # no processors: dropped
            swf_job(4, submit=5.0, run=500.0, req_time=300.0),  # est < actual
        ),
    )
    requests = swf_to_requests(trace, procs_per_node=48, max_nodes=1)
    assert [r.job_id for r in requests] == ["swf-1", "swf-4"]  # arrival order
    by_id = {r.job_id: r for r in requests}
    assert by_id["swf-1"].nodes_requested == 1  # ceil(96/48)=2, clamped to 1
    assert by_id["swf-4"].walltime_estimate_s == 500.0  # covers the runtime
    app = by_id["swf-1"].application
    assert isinstance(app, TraceReplayApplication) and app.duration_s == 120.0
    assert by_id["swf-1"].user == "user7"


def test_synthetic_trace_round_trips_through_swf(tmp_path):
    requests = synthesize_replay_trace(
        25, seed=4, mean_interarrival_s=15.0, max_nodes_per_job=16,
        mean_runtime_s=300.0,
    )
    path = str(tmp_path / "synthetic.swf")
    write_swf(path, requests_to_swf(requests, header=("Origin: synth",)))
    back = swf_to_requests(read_swf(path))
    assert len(back) == len(requests)
    for rebuilt, original in zip(back, requests):
        assert rebuilt.arrival_time_s == original.arrival_time_s
        assert rebuilt.nodes_requested == original.nodes_requested
        assert rebuilt.application.duration_s == original.application.duration_s
        assert rebuilt.walltime_estimate_s >= original.application.duration_s
        assert rebuilt.user == original.user


# -- workload specs --------------------------------------------------------------------


def test_parse_workload_spec_variants():
    kind, opts = parse_workload_spec("swf:/data/kit.swf,procs_per_node=48,max_nodes=1024")
    assert kind == "swf"
    assert opts == {"path": "/data/kit.swf", "procs_per_node": 48, "max_nodes": 1024}
    kind, opts = parse_workload_spec("synth:n_jobs=100,arrival_quantum_s=none")
    assert kind == "synth" and opts == {"n_jobs": 100, "arrival_quantum_s": None}
    for bad in ("csv:jobs.csv", "synth", "swf:procs_per_node=48", "synth:n_jobs"):
        with pytest.raises(ValueError):
            parse_workload_spec(bad)


def test_workload_requests_synth_seeds_from_experiment():
    spec = "synth:n_jobs=10,mean_interarrival_s=5.0"
    assert [r.job_id for r in workload_requests(spec, seed=1)] == [
        f"trace-{i:06d}" for i in range(10)
    ]
    a = [r.arrival_time_s for r in workload_requests(spec, seed=1)]
    b = [r.arrival_time_s for r in workload_requests(spec, seed=2)]
    assert a != b  # the experiment seed decorrelates the trace
    assert a == [r.arrival_time_s for r in workload_requests(spec, seed=1)]
    with pytest.raises(ValueError, match="unknown synth option"):
        workload_requests("synth:n_jobs=10,flavour=spicy")
    with pytest.raises(ValueError, match="needs n_jobs"):
        workload_requests("synth:mean_interarrival_s=5.0")


def test_workload_requests_swf_path(tmp_path):
    path = str(tmp_path / "t.swf")
    write_swf(path, SwfTrace(header=(), jobs=(swf_job(1), swf_job(2, submit=20.0))))
    requests = workload_requests(f"swf:{path},procs_per_node=2")
    assert [r.job_id for r in requests] == ["swf-1", "swf-2"]
    assert requests[0].nodes_requested == 2
    with pytest.raises(ValueError, match="unknown swf option"):
        workload_requests(f"swf:{path},fidelity=high")


# -- arrival-order stability (hypothesis) ----------------------------------------------


@given(
    submits=st.lists(
        st.integers(min_value=0, max_value=500), min_size=1, max_size=30
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_swf_requests_sorted_stably_by_arrival(submits, data):
    """Conversion sorts by submit time; ties keep trace (file) order."""
    jobs = tuple(
        swf_job(i + 1, submit=float(s), run=60.0) for i, s in enumerate(submits)
    )
    order = data.draw(st.permutations(range(len(jobs))))
    shuffled = SwfTrace(header=(), jobs=tuple(jobs[i] for i in order))
    requests = swf_to_requests(shuffled)
    arrivals = [r.arrival_time_s for r in requests]
    assert arrivals == sorted(arrivals)
    # Stability: among equal arrivals, file order is preserved.
    positions = {f"swf-{jobs[i].job_id}": rank for rank, i in enumerate(order)}
    for earlier, later in zip(requests, requests[1:]):
        if earlier.arrival_time_s == later.arrival_time_s:
            assert positions[earlier.job_id] < positions[later.job_id]


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_synthesized_arrivals_non_decreasing(seed):
    trace = synthesize_replay_trace(
        30, seed=seed, mean_interarrival_s=7.0, arrival_quantum_s=30.0
    )
    arrivals = [r.arrival_time_s for r in trace]
    assert arrivals == sorted(arrivals)
    assert all(a % 30.0 == 0.0 for a in arrivals)


def run_schedule(requests):
    env = Environment()
    cluster = Cluster(ClusterSpec(n_nodes=8), seed=5)
    policies = SitePolicies(
        system_power_budget_w=cluster.total_tdp_w(), reserve_fraction=0.0
    )
    scheduler = PowerAwareScheduler(
        env, cluster, policies,
        SchedulerConfig(), RandomStreams(5),
    )
    scheduler.submit_trace(list(requests))
    stats = scheduler.run_until_complete()
    return [
        (job_id, job.start_time_s, tuple(n.node_id for n in job.assigned_nodes))
        for job_id, job in sorted(scheduler.jobs.items())
    ], stats.as_dict()


@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_schedule_is_stable_under_submission_order(data):
    """submit_trace order must not matter: the schedule is a function of
    arrival times, not of the order the trace file listed the jobs."""
    trace = synthesize_replay_trace(
        15, seed=8, mean_interarrival_s=20.0, mean_runtime_s=120.0,
        max_nodes_per_job=4,
    )
    baseline = run_schedule(trace)
    shuffled = data.draw(st.permutations(trace))
    assert run_schedule(shuffled) == baseline
