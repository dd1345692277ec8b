"""Perf — raw event throughput of the discrete-event simulation kernel.

Every PowerStack evaluation replays a workload through the
:mod:`repro.sim.engine` event loop, so events/sec bounds how fast the
end-to-end tuner can go.  This microbenchmark drives the kernel with
timeout chains per actor, a periodic monitor, and a joiner process that
yields each actor process in turn, and records events/sec into
``BENCH_perf.json``.  The ``__slots__`` layout of
``Event``/``Timeout``/``Process``/``Environment`` keeps per-event
allocation overhead down on exactly this path.
"""

import time

from conftest import banner, record_perf, run_once

from repro.sim.engine import Environment

N_ACTORS = 200
TIMEOUTS_PER_ACTOR = 250
MONITOR_TICKS = 500


def run_simulation():
    env = Environment()

    def actor(index: int):
        for step in range(TIMEOUTS_PER_ACTOR):
            yield env.timeout(0.5 + (index % 7) * 0.1)
        return index

    def monitor():
        for _ in range(MONITOR_TICKS):
            yield env.timeout(0.25)

    procs = [env.process(actor(i)) for i in range(N_ACTORS)]
    env.process(monitor())
    env.process(join(procs))

    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0

    # Timeouts + per-process init/finish events + monitor ticks + the join.
    events = N_ACTORS * (TIMEOUTS_PER_ACTOR + 2) + MONITOR_TICKS + 2
    return {
        "events": events,
        "elapsed_s": elapsed,
        "events_per_sec": events / elapsed,
        "final_time": env.now,
    }


def join(procs):
    for proc in procs:
        yield proc


def test_perf_sim_engine_event_throughput(benchmark):
    stats = run_once(benchmark, run_simulation)
    banner(
        f"Perf: simulation kernel — {N_ACTORS} actors x {TIMEOUTS_PER_ACTOR} "
        f"timeouts + monitor + join"
    )
    print(
        f"{stats['events']} events in {stats['elapsed_s']:.3f}s -> "
        f"{stats['events_per_sec']:,.0f} events/sec (sim time {stats['final_time']:.1f}s)"
    )
    path = record_perf("sim_engine", {k: stats[k] for k in sorted(stats)})
    print(f"recorded -> {path}")

    # Loose floor: the kernel must stay comfortably in the 10^5 events/sec
    # class on any machine this runs on.
    assert stats["events_per_sec"] > 50_000
