"""Perf — throughput of the batched/cached tuning engine vs the seed loop.

The seed reproduction ticks the ask→evaluate→tell loop one configuration
at a time.  This benchmark runs the same 1000-evaluation tuning problem
through the :class:`Autotuner` twice: (a) one configuration at a time
(``batch_size=1``, no cache) and (b) with batch proposals and evaluation
memoization, and reports evals/sec for both.  The evaluator carries a
deliberate fixed compute cost standing in for a real build-and-run
measurement, so the cache's ability to skip repeated configurations (the
space has only 84 points — every tuning loop revisits them constantly)
shows up as throughput, exactly as it would against a real plopper.

Acceptance: ≥5x speedup for the batched+cached engine, and the
batch-size-1 path bit-identical to the sequential reference loop
(``sequential_autotune`` in ``tests/oracles.py``) for the same seed.
Results land in ``BENCH_perf.json`` under ``tuning_throughput``.
"""

import time

import numpy as np
from conftest import banner, record_perf, run_once
from oracles import sequential_autotune

from repro.analysis.reporting import format_table
from repro.core.space import ParameterSpace
from repro.core.tuner import Autotuner

MAX_EVALS = 1000
BATCH_SIZE = 64
SEED = 11
#: Elements of the per-evaluation numpy workload (~0.5-1 ms): the stand-in
#: for building and running a real configuration.
EVAL_WORK = 120_000


def make_space() -> ParameterSpace:
    return ParameterSpace.from_dict(
        {
            "tile": [1, 2, 4, 8, 16, 32, 64],
            "unroll": [0.1, 0.2, 0.4, 0.8],
            "pragma": ["static", "dynamic", "guided"],
        },
        name="perf-synthetic",
    )


def evaluator(config):
    x = np.linspace(0.0, float(config["tile"]), EVAL_WORK)
    burn = float(np.sum(np.sin(x) ** 2))  # fixed compute cost per evaluation
    value = (
        abs(np.log2(config["tile"]) - 3.0)
        + abs(config["unroll"] - 0.4) * 5.0
        + {"static": 0.5, "dynamic": 0.0, "guided": 1.0}[config["pragma"]]
    )
    runtime = 1.0 + value + 1e-12 * burn
    return {"runtime_s": runtime, "energy_j": runtime * 200.0, "power_w": 200.0}


def run_comparison():
    sequential = Autotuner(
        make_space(), evaluator, search="random", max_evals=MAX_EVALS, seed=SEED
    )
    t0 = time.perf_counter()
    seq_result = sequential.run()
    seq_elapsed = time.perf_counter() - t0

    batched = Autotuner(
        make_space(),
        evaluator,
        search="random",
        max_evals=MAX_EVALS,
        seed=SEED,
        batch_size=BATCH_SIZE,
        executor="serial",
        cache_evaluations=True,
    )
    t0 = time.perf_counter()
    batch_result = batched.run()
    batch_elapsed = time.perf_counter() - t0

    # Equivalence proof: batch size 1 without the cache replays the
    # sequential reference loop bit-for-bit for the same seed.
    check_evals = 60
    seq_small = sequential_autotune(Autotuner(
        make_space(), evaluator, search="random", max_evals=check_evals, seed=SEED
    ))
    batch1_small = Autotuner(
        make_space(), evaluator, search="random", max_evals=check_evals, seed=SEED
    ).run()
    identical = (
        [r.to_dict() for r in seq_small.database]
        == [r.to_dict() for r in batch1_small.database]
        and seq_small.convergence == batch1_small.convergence
        and seq_small.best_config == batch1_small.best_config
    )

    return {
        "sequential_elapsed_s": seq_elapsed,
        "sequential_evals_per_sec": seq_result.evaluations / seq_elapsed,
        "sequential_best": seq_result.best_objective,
        "batched_elapsed_s": batch_elapsed,
        "batched_evals_per_sec": batch_result.evaluations / batch_elapsed,
        "batched_best": batch_result.best_objective,
        "speedup": seq_elapsed / batch_elapsed,
        "cache_hits": batch_result.cache_hits,
        "cache_misses": batch_result.cache_misses,
        "cache_hit_rate": batch_result.cache_hits
        / max(1, batch_result.cache_hits + batch_result.cache_misses),
        "batch1_identical_to_sequential": identical,
    }


def test_perf_tuning_throughput(benchmark):
    stats = run_once(benchmark, run_comparison)
    banner(
        f"Perf: {MAX_EVALS}-eval tuning run — sequential loop vs "
        f"batched (batch={BATCH_SIZE}) + memoized engine"
    )
    print(
        format_table(
            [
                {
                    "engine": "sequential (seed)",
                    "elapsed_s": round(stats["sequential_elapsed_s"], 3),
                    "evals_per_sec": round(stats["sequential_evals_per_sec"], 1),
                    "best": round(stats["sequential_best"], 3),
                },
                {
                    "engine": "batched+cached",
                    "elapsed_s": round(stats["batched_elapsed_s"], 3),
                    "evals_per_sec": round(stats["batched_evals_per_sec"], 1),
                    "best": round(stats["batched_best"], 3),
                },
            ]
        )
    )
    print(
        f"speedup: {stats['speedup']:.1f}x | cache hit rate: "
        f"{stats['cache_hit_rate']:.1%} ({stats['cache_hits']} hits / "
        f"{stats['cache_misses']} misses) | batch-1 identical: "
        f"{stats['batch1_identical_to_sequential']}"
    )
    path = record_perf("tuning_throughput", {k: stats[k] for k in sorted(stats)})
    print(f"recorded -> {path}")

    assert stats["batch1_identical_to_sequential"]
    assert stats["speedup"] >= 5.0
