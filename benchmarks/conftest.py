"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or an
ablation DESIGN.md calls out).  Each runs its experiment exactly once
through ``benchmark.pedantic`` (the experiments are simulations — the
interesting output is the regenerated table, not the wall-clock time of
the simulator) and prints the rows/series with a clear banner so the
``bench_output.txt`` log reads like the paper's evaluation section.

The ``bench_perf_*`` benchmarks additionally record machine-readable
throughput numbers (evals/sec, events/sec, cache hit rate, speedups)
into ``BENCH_perf.json`` at the repository root via :func:`record_perf`,
so later PRs can track the performance trajectory across the stacked
sequence.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Callable, Dict

#: The reference implementations the perf benchmarks check parity against.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

#: Machine-readable performance results, merged across benchmark runs.
PERF_JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_perf.json")

#: Headline metrics guarded against regression, per section.  All are
#: higher-is-better; a new value more than PERF_REGRESSION_TOLERANCE below
#: the previously recorded one fails the bench run.
PERF_GUARDED_KEYS = {
    "tuning_throughput": ("speedup",),
    "cluster_scale": ("speedup_power_energy",),
    "scheduler_scale": ("speedup", "trace_jobs_per_wall_sec"),
    "scheduler_mega": ("trace_jobs_per_wall_sec",),
    "campaign": ("speedup",),
    "chaos": ("recovery_passes",),
    "durability": ("append_runs_per_sec", "recover_runs_per_sec"),
    "netserver": (
        "envelopes_per_sec",
        "speedup_vs_single_stream",
        "concurrent_connections",
    ),
}
PERF_REGRESSION_TOLERANCE = 0.20


def run_once(benchmark, function: Callable, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def banner(title: str) -> None:
    line = "=" * max(60, len(title) + 8)
    print(f"\n{line}\n=== {title}\n{line}")


def record_perf(section: str, values: Dict[str, Any]) -> str:
    """Merge ``values`` into the ``section`` key of ``BENCH_perf.json``.

    Each perf benchmark owns one section (e.g. ``"tuning_throughput"``);
    re-running a benchmark overwrites its own section and leaves the
    others intact.  The section keeps a one-deep history: the accepted
    values it replaces are preserved under ``"previous"``, and the
    guarded headline metrics (:data:`PERF_GUARDED_KEYS`) are compared
    against the accepted baseline — a drop of more than
    :data:`PERF_REGRESSION_TOLERANCE` fails the bench run.  A regressed
    run is written under the section's ``"rejected"`` key and does NOT
    replace the accepted baseline, so re-running the bench keeps failing
    (and keeps comparing against the last good numbers) until the
    regression is actually fixed.  Returns the path written.
    """
    path = os.path.abspath(PERF_JSON_PATH)
    data: Dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    previous = data.get(section)
    if not isinstance(previous, dict):
        previous = None
    accepted = (
        {k: v for k, v in previous.items() if k not in ("previous", "rejected")}
        if previous
        else None
    )
    values = dict(values)

    regressions = []
    if accepted:
        for key in PERF_GUARDED_KEYS.get(section, ()):
            old = accepted.get(key)
            new = values.get(key)
            if (
                isinstance(old, (int, float))
                and isinstance(new, (int, float))
                and old > 0
                and new < old * (1.0 - PERF_REGRESSION_TOLERANCE)
            ):
                regressions.append(
                    f"{section}.{key} regressed {old:.3g} -> {new:.3g} "
                    f"(> {PERF_REGRESSION_TOLERANCE:.0%} drop)"
                )

    if regressions:
        # Record the regressed run without promoting it to the baseline.
        entry = dict(previous)
        entry["rejected"] = values
        data[section] = entry
    else:
        if accepted:
            values["previous"] = accepted
        data[section] = values
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if regressions:
        raise AssertionError(
            "performance regression versus recorded BENCH_perf.json values: "
            + "; ".join(regressions)
        )
    return path
