"""The seven co-tuning use cases of §3.2, as runnable library functions.

Each module defines one public runner, ``run_use_case(...)``, and
registers it with the :mod:`repro.experiments` campaign registry: it
builds the relevant slice of the PowerStack, runs the experiment the
paper describes, and returns a plain dictionary of results.  The
benchmark harness (``benchmarks/bench_uc*.py``) and the integration
tests call these functions directly; campaigns
(``python -m repro.experiments``) run scenario×seed grids of them
through the registry, in parallel with columnar result capture.

| module | paper section | layers co-tuned |
|---|---|---|
| :mod:`uc1_slurm_conductor_hypre` | §3.2.1 | RM + Conductor + Hypre |
| :mod:`uc2_slurm_geopm`           | §3.2.2 | RM + GEOPM |
| :mod:`uc3_ytopt_clang`           | §3.2.3 | compiler + application + runtime |
| :mod:`uc4_readex_espreso`        | §3.2.4 | READEX/MERIC + application |
| :mod:`uc5_irm_epop`              | §3.2.5 | IRM + EPOP (power corridor) |
| :mod:`uc6_slurm_countdown`       | §3.2.6 | RM + COUNTDOWN |
| :mod:`uc7_countdown_meric`       | §3.2.7 | COUNTDOWN + MERIC |

:mod:`trace_replay` rides alongside the seven: workload-trace replay
(SWF or synthetic, the ``--workload`` campaign axis) through the
event-driven scheduler at mega scale.
"""

from repro.core.usecases.uc1_slurm_conductor_hypre import run_use_case as run_uc1
from repro.core.usecases.uc2_slurm_geopm import run_use_case as run_uc2
from repro.core.usecases.uc3_ytopt_clang import run_use_case as run_uc3
from repro.core.usecases.uc4_readex_espreso import run_use_case as run_uc4
from repro.core.usecases.uc5_irm_epop import run_use_case as run_uc5
from repro.core.usecases.uc6_slurm_countdown import run_use_case as run_uc6
from repro.core.usecases.uc7_countdown_meric import run_use_case as run_uc7
from repro.core.usecases.trace_replay import run_use_case as run_trace

__all__ = [
    "run_uc1",
    "run_uc2",
    "run_uc3",
    "run_uc4",
    "run_uc5",
    "run_uc6",
    "run_uc7",
    "run_trace",
]
