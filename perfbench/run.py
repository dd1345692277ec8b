"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tune_deep --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace
1`` measures half the time untraced, in a fresh interpreter, and half
with every layer wrapped (see ``layers.py``), and reports the per-layer
metrics, each layer's self time, the residual and the tracing overhead.
The last stdout line is the result object; the lines before it name
every metric with its unit and sample count, and the host facts.  A
failed output check fails the run.

Metric names, units and the workloads' reasons are in ``BENCHMARK.json``;
what each metric means, and which end-to-end metric each layer should
move on which workload, is in ``layer_map.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune_deep", "control_mix", "sched_contended", "cotune_campaign")
#: Runs this benchmark in a fresh interpreter; the self-test swaps in its
#: tiny-size entry point.
SELF_COMMAND = [sys.executable, os.path.join(HERE, "run.py")]


def _require_checkout() -> None:
    """The benchmark builds nothing: it needs the package sources and goldens."""
    missing = [path for path in ("src/repro", "tests/golden")
               if not os.path.isdir(os.path.join(ROOT, path))]
    if missing:
        sys.stderr.write(f"perfbench: not a repository checkout, missing {missing}\n")
        raise SystemExit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _end_to_end(m, setup_times, peak_rss) -> dict:
    from common import median, pct

    # The gated tail is p90: over a 10 s run, p99 moves 15-30% from run to
    # run with garbage-collector pauses; p99s are printed by name instead.
    metrics = {
        "peak_rss_mb": (peak_rss, "MB"),
        "rate_per_s": (m.rate, "1/s"),
        "op_p50_us": (pct(m.latencies_us, 50), "us"),
        "op_p90_us": (pct(m.latencies_us, 90), "us"),
    }
    if setup_times:
        metrics["setup_s"] = (median(setup_times), "s")
    return metrics


def _untraced_half(args) -> dict:
    """The traced run's untraced reference, run first in a fresh interpreter.

    Back-to-back runs in one interpreter get slower (tune_deep fell from
    4.4k to 3.2k evals/s in one measurement), so an untraced half run in
    this process would count that slowdown as tracing overhead.
    """
    done = subprocess.run(
        [*SELF_COMMAND, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds / 2), "--trace", "0", "--no-setup"],
        capture_output=True, text=True, cwd=ROOT, timeout=150,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"untraced half exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: build the workload's inputs and exit")
    parser.add_argument("--no-setup", action="store_true",
                        help="internal: skip timing set-up (the traced run's untraced half)")
    args = parser.parse_args(argv)
    _require_checkout()
    # One vCPU for the run and every process it starts (the control_mix
    # server included), so the host-speed probe times the CPU the work
    # ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from common import OUT, host_facts, peak_rss_mb, probe_setup_times

    workload = importlib.import_module(args.workload)
    if args.probe_setup:
        workload.probe(args.seed)
        return 0

    facts = dict(host_facts(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace)
    os.makedirs(OUT, exist_ok=True)
    if args.trace == 0:
        setups = None
        if not args.no_setup:
            setup_times = getattr(workload, "setup_times", None)
            setups = (setup_times(args.seed) if setup_times is not None
                      else probe_setup_times(args.workload, args.seed))
        m = workload.measure(args.seed, args.seconds)
        metrics = _end_to_end(m, setups, m.peak_rss_mb or peak_rss_mb())
    else:
        import layers
        from tracing import Tracer

        untraced = _untraced_half(args)
        tracer = Tracer()
        if not getattr(workload, "TRACES_ITSELF", False):
            layers.install(tracer)
        m = workload.measure(args.seed, args.seconds / 2, tracer)
        window = tracer.last_end - (tracer.first_start or tracer.last_end)
        metrics = dict(m.layer_metrics) if m.layer_metrics else \
            layers.per_layer_metrics(tracer.merged(), m.units + 1, window)  # + warm-up
        untraced_rate = untraced["metrics"]["rate_per_s"]["value"]
        overhead = (untraced_rate / m.rate - 1.0) * 100.0 if m.rate else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        if tracer.spans:
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        m.checks["untraced_half_correct"] = untraced["correct"]
        m.attempted += untraced["attempted"]
        m.failed += untraced["failed"]

    correct = bool(m.checks) and all(m.checks.values())
    record = {
        "host": facts,
        "ops": {"attempted": m.attempted, "succeeded": m.attempted - m.failed,
                "failed": m.failed,
                "fail_ratio": m.failed / m.attempted if m.attempted else 0.0},
        "units": m.units,
        "checks": m.checks,
        "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in m.named.items()},
        "counts": m.counts,
        "digest": m.digest,
    }
    print("host " + json.dumps(facts, sort_keys=True))
    print("ops " + json.dumps(record["ops"], sort_keys=True) + f" units={m.units}")
    for name, (value, unit, samples) in m.named.items():
        print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    print(f"op latencies: {len(m.latencies_us)} samples")
    for name, passed in sorted(m.checks.items()):
        print(f"check {name}: {'pass' if passed else 'FAIL'}")
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(record, metrics={k: v for k, (v, _) in metrics.items()}), fh,
                  indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, m.attempted),
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
