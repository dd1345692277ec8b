"""Shared plumbing of the benchmark: paths, host facts, statistics, results."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (temp journals, span dumps, result records).
OUT = os.path.join(HERE, "out")

#: Cold set-ups timed per run; ``setup_s`` is their median.  One set-up
#: takes 0.3-1.5 s and single ones vary by up to 50% back to back, so a
#: median of three still moved 30-40% between runs.
SETUP_TRIALS = 7

#: Host-speed probe: how often it runs while work is measured, and what
#: it took on the reference host (2-vCPU Intel Xeon VM, uncontended).
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.0021


def host_facts() -> Dict[str, object]:
    """What the numbers depend on besides the code: recorded with every result."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def calibrate() -> float:
    """Time one fixed slice of interpreter work: dict updates, JSON, a sort.

    The slice exercises what the stack's hot paths are made of and none
    of the stack's code, so a change to the repository cannot move it.
    The garbage collector is off while it runs: a collection would walk
    the workload's heap and make the probe measure the program's memory.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[str, int] = {}
        for i in range(300):
            key = "k%d" % (i % 89)
            table[key] = table.get(key, 0) + i
            json.loads(json.dumps({"i": i, "key": key, "v": [i, i * 0.5]}, sort_keys=True))
        sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Restates a unit's wall-clock measurements at the reference host's speed.

    The vCPUs this benchmark was sized on change speed by up to ~60% in
    phases lasting seconds to minutes (CPU time tracks wall time, so it
    is the vCPU running slower, not time stolen from it).  While a unit
    of work runs, :meth:`probe` times a fixed slice of interpreter work
    (:func:`calibrate`) every ``PROBE_EVERY_S``.  Each latency recorded
    between two probes is multiplied by ``PROBE_REF_S`` over their mean,
    and the unit's wall time by ``PROBE_REF_S`` over the mean of all its
    probes, after taking the probes' own time out of it.
    """

    def __init__(self) -> None:
        self.start()

    def start(self) -> None:
        """Begin a unit: forget earlier probes and probe once."""
        self._times: List[float] = []
        self._spent = 0.0
        self._open: Dict[str, List[float]] = {}
        self._segments: List[Dict[str, List[float]]] = []
        self._probe()

    def _probe(self) -> None:
        took = calibrate()
        if len(self._times) > 0:
            self._segments.append(self._open)
            self._open = {}
        self._times.append(took)
        self._spent += took
        self._last = time.perf_counter()

    def probe(self) -> None:
        """Probe if ``PROBE_EVERY_S`` passed since the last probe (call often)."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._probe()

    def record(self, series: str, value: float) -> None:
        """Note one latency of ``series`` measured since the last probe."""
        self._open.setdefault(series, []).append(value)

    def finish(self, wall_s: float) -> tuple:
        """End a unit that took ``wall_s``: ``(normalised wall, latencies)``.

        The probes run between the unit's first and last are inside
        ``wall_s`` and are taken out of it.
        """
        self._probe()
        times = self._times
        inside = self._spent - times[0] - times[-1]
        wall = (wall_s - inside) * PROBE_REF_S / (sum(times) / len(times))
        latencies: Dict[str, List[float]] = {}
        for index, segment in enumerate(self._segments):
            factor = PROBE_REF_S / ((times[index] + times[index + 1]) / 2)
            for series, values in segment.items():
                latencies.setdefault(series, []).extend(v * factor for v in values)
        return wall, latencies


def env_with_src() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_setup_times(workload: str, seed: int) -> List[float]:
    """Wall time of ``SETUP_TRIALS`` fresh interpreters that import the stack
    and build the workload's inputs (``run.py --probe-setup``), one at a time."""
    times = []
    for _ in range(SETUP_TRIALS):
        speed = HostSpeed()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            check=True, env=env_with_src(), cwd=ROOT, timeout=120,
        )
        times.append(speed.finish(time.perf_counter() - start)[0])
    return times


@dataclass
class Measurement:
    """One measured phase of a workload."""

    #: Latency of the workload's primary operation, microseconds.
    latencies_us: List[float]
    #: Primary operations completed per second (median over units).
    rate: float
    #: Completed primary operations (evaluations, envelopes, jobs, runs).
    completed: int
    #: Workload units run (episodes, drains, campaigns).
    units: int
    attempted: int
    failed: int
    #: Output checks: name -> passed.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: The issue-named end-to-end metrics: name -> (value, unit, samples).
    named: Dict[str, tuple] = field(default_factory=dict)
    #: Exact per-unit counts for the determinism self-check.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS of the measured process (the server's for control_mix).
    peak_rss_mb: Optional[float] = None
    #: Per-layer metrics, when the phase was traced.
    layer_metrics: Dict[str, tuple] = field(default_factory=dict)
    #: Digest of the decisions the run made (schedule), when it has one.
    digest: Optional[str] = None


@dataclass
class Unit:
    """One workload unit: operations done, wall time and op latencies,
    all restated at reference host speed (``HostSpeed``)."""

    completed: int
    wall_s: float
    latencies_us: List[float] = field(default_factory=list)
    #: Secondary latency series by name (reads beside writes, ...).
    series: Dict[str, List[float]] = field(default_factory=dict)


def pooled(units: Sequence[Unit]) -> tuple:
    """(median unit rate, completed, latencies, series) over ``units``.

    The rate is the median of the units' rates, which one unit caught in
    a host-speed change cannot drag.
    """
    if not units:
        raise ValueError("no measured units: --seconds is too short for this workload")
    latencies: List[float] = []
    series: Dict[str, List[float]] = {}
    for unit in units:
        latencies.extend(unit.latencies_us)
        for name, values in unit.series.items():
            series.setdefault(name, []).extend(values)
    rate = median([u.completed / u.wall_s for u in units])
    return rate, sum(u.completed for u in units), latencies, series


def run_units(seconds: float, unit: Callable[[int], None]) -> int:
    """Run ``unit(0)``, then ``unit(1)``, ``unit(2)``... for ``seconds``.

    Unit 0 is the warm-up: untimed, it lets caches fill and the heap
    grow, and it is where a workload makes its output checks.  Returns
    the number of measured units (at least one).
    """
    unit(0)
    start = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - start < seconds:
        done += 1
        unit(done)
    return done


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
