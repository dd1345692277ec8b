"""Smoke self-test of the benchmark at tiny sizes (about four minutes).

    python3 perfbench/selftest.py

Checks that ``layer_map.json`` covers exactly the workloads, end-to-end
metrics and layers ``BENCHMARK.json`` names, then runs every workload
untraced and traced at tiny sizes and asserts that every metric
``BENCHMARK.json`` names is emitted with its unit, that the output checks
ran and passed, and that nothing failed.

Determinism: two traced runs with one seed must give identical exact
counts and schedule digest, and another seed must change the digest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Module constants overridden in the child process: tiny but complete.
TINY = {
    "tune_deep": {"ROUNDS": 20},
    "control_mix": {"SETUP_TRIALS": 1},
    "sched_contended": {"N_NODES": 256, "N_JOBS": 2000, "PEAK_QUEUE_MIN": 100},
    "cotune_campaign": {},
}
#: control_mix needs two 1 s slices per traced half: one warm-up, one measured.
SECONDS = {"tune_deep": 0.5, "control_mix": 5, "sched_contended": 0.5, "cotune_campaign": 0.5}
#: Counts that must repeat exactly for one seed (traced per-layer metrics).
EXACT = {
    "tune_deep": ["telemetry.where_rows.max", "telemetry.where_rows.mean",
                  "durability.bytes_per_record"],
    "sched_contended": ["sim.events", "resource_manager.passes", "resource_manager.plan_calls"],
    "cotune_campaign": ["core.evaluations", "sim.events"],
}


def child(workload: str, argv: list) -> int:
    """Run ``run.py`` in this process with the workload's tiny sizes."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib

    import common
    import run

    module = importlib.import_module(workload)
    common.SETUP_TRIALS = 1
    for name, value in TINY[workload].items():
        setattr(module, name, value)
    run.SELF_COMMAND = [sys.executable, os.path.abspath(__file__), "--child", workload]
    return run.main(argv)


def run_tiny(workload: str, seed: int, trace: int) -> tuple:
    command = [sys.executable, os.path.join(HERE, "selftest.py"), "--child", workload,
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS[workload]), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n"
                             f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    path = os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record, lines


def layer_of(metric: str) -> str:
    """A per-layer metric's layer: its name's first part (of ``self_s.<layer>``, the second)."""
    head, _, rest = metric.partition(".")
    return rest if head == "self_s" else head


def check_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(layer_map["workloads"])
    assert {m["name"] for m in bench["end_to_end"]} == set(layer_map["end_to_end"])
    assert {layer_of(m["name"]) for m in bench["per_layer"]} == set(layer_map["layers"])
    return bench


def main() -> int:
    bench = check_manifest()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = {}
    for workload in TINY:
        for trace, expected in ((0, e2e), (1, per_layer)):
            result, record, lines = run_tiny(workload, 5, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, \
                (workload, trace, sorted(set(expected) ^ set(result["metrics"])))
            assert record["checks"] and any(line.startswith("check ") for line in lines)
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), workload
            else:
                traced[workload] = (result, record)
        print(f"selftest: {workload} emits every metric; checks ran and passed")

    for workload, names in EXACT.items():
        first, first_record = traced[workload]
        again, again_record = run_tiny(workload, 5, 1)[:2]
        for name in names:
            assert first["metrics"][name]["value"] == again["metrics"][name]["value"], \
                (workload, name, first["metrics"][name], again["metrics"][name])
        assert first_record["digest"] == again_record["digest"], workload
        print(f"selftest: {workload} exact counts repeat for one seed: {names}")
    other = run_tiny("sched_contended", 6, 1)[1]
    assert other["digest"] != traced["sched_contended"][1]["digest"]
    print("selftest: another seed changes the schedule digest")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        raise SystemExit(child(sys.argv[2], sys.argv[3:]))
    raise SystemExit(main())
