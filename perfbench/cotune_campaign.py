"""``cotune_campaign``: the paper's co-tuning use cases, end to end.

``repro.experiments.Campaign`` with the ``serial`` executor over uc1-uc7
at the parameters pinned in ``tests/golden/regen.py``, at seed 1 plus
``DERIVED`` seeds derived from the benchmark seed.  This is the paper's
end-to-end co-tuning itself: ``BatchAutotuner`` and its search models,
full-physics MPI applications, runtime budgets, ``ClusterState`` power
and thermal accounting and monitor sampling.  It makes few scheduling decisions and
uses no control plane, and it is the only workload that measures
``core``, ``apps``, ``runtime``, ``compiler`` and the hardware physics.

The campaign is repeated for the run's length.  The operation whose
latency is reported is the campaign; its time is the sum over the
(use case, seed) runs of each run's median time across the repeats,
each timed by a wrapper on ``repro.experiments.campaign._execute_run``
(restated at reference host speed, see ``common.HostSpeed``).  The
seed-1 runs must equal ``tests/golden/*_seed1.json`` (read only).
"""

from __future__ import annotations

import importlib.util
import json
import os
import time
from typing import Any, Dict, List

import numpy as np

from common import ROOT, HostSpeed, Measurement, median, run_units

GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
GOLDEN_SEED = 1
#: Derived seeds per use case.  uc1 runs at the golden seed only: its cost
#: moves with the seed (2.4-4.1 s measured), which would make the
#: campaign's cost a function of the benchmark seed.
DERIVED = 2
GOLDEN_ONLY = ("uc1",)


def _regen() -> Any:
    spec = importlib.util.spec_from_file_location(
        "golden_regen", os.path.join(GOLDEN_DIR, "regen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def derived_seeds(seed: int) -> tuple:
    """Campaign seeds other than the golden one, fixed by the benchmark seed."""
    state = np.random.SeedSequence([seed, 7]).generate_state(DERIVED)
    return tuple(2 + DERIVED * int(v % 1_000_000) + i for i, v in enumerate(state))


def build(seed: int) -> tuple:
    """The campaign and the golden outputs its seed-1 runs must reproduce."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.registry import build_scenario

    regen = _regen()
    scenarios = []
    goldens = {}
    for name, pinned in regen.GOLDEN_CASES.items():
        params = {k: v for k, v in pinned.items() if k != "seed"}
        seeds = (GOLDEN_SEED,) if name in GOLDEN_ONLY else (GOLDEN_SEED, *derived_seeds(seed))
        scenarios.append(build_scenario(name, params=params, seeds=seeds, name=name))
        with open(os.path.join(GOLDEN_DIR, f"{name}_seed1.json"), encoding="utf-8") as fh:
            goldens[name] = json.load(fh)
    return Campaign(scenarios, name="cotune"), goldens, regen.jsonify


def probe(seed: int) -> None:
    build(seed)


def measure(seed: int, seconds: float, tracer: Any = None) -> Measurement:
    import repro.experiments.campaign as campaign_module
    from repro.sim.engine import Environment

    per_run: Dict[str, List[float]] = {}
    totals = {"runs": 0, "failed": 0, "campaigns": 0}
    checks: Dict[str, bool] = {}
    speed = HostSpeed()
    execute, step = campaign_module._execute_run, Environment.step

    def timed_execute(payload: Any) -> Any:
        # Each use-case run is timed here, with host-speed probes from the
        # event loop subtracted and the run restated at reference speed.
        speed.start()
        start = time.perf_counter()
        try:
            return execute(payload)
        finally:
            wall = speed.finish(time.perf_counter() - start)[0]
            if totals["campaigns"] > 0:  # campaign 0 is the warm-up
                per_run.setdefault(f"{payload['use_case']}/{payload['seed']}", []).append(wall)

    def probing_step(self: Any) -> None:
        speed.probe()
        step(self)

    def campaign(index: int) -> None:
        totals["campaigns"] = index
        runner, goldens, jsonify = build(seed)
        result = runner.run(executor="serial")
        totals["runs"] += len(result.runs)
        totals["failed"] += sum(1 for run in result.runs if run.error is not None)
        if index == 0:
            checks["every_run_completed"] = (
                len(result.runs) == runner.total_runs
                and all(run.error is None for run in result.runs))
            for run in result.runs:
                if run.spec.seed == GOLDEN_SEED:
                    fresh = json.loads(json.dumps(jsonify(run.result)))
                    checks[f"golden_{run.spec.use_case}"] = fresh == goldens[run.spec.use_case]

    campaign_module._execute_run, Environment.step = timed_execute, probing_step
    try:
        units = run_units(seconds, campaign)
    finally:
        campaign_module._execute_run, Environment.step = execute, step
    runs = {key: median(times) for key, times in per_run.items()}
    campaign_s = sum(runs.values())
    named = {"campaign_wall_s": (campaign_s, "s", units)}
    for key in sorted(runs):
        named[f"run_s.{key}"] = (runs[key], "s", len(per_run[key]))
    return Measurement(
        latencies_us=[campaign_s * 1e6],
        rate=len(runs) / campaign_s,
        completed=totals["runs"],
        units=units,
        attempted=totals["runs"],
        failed=totals["failed"],
        checks=checks,
        named=named,
        counts={"runs": totals["runs"] / (units + 1)},
    )
