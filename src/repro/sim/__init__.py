"""Discrete-event simulation substrate for the PowerStack reproduction.

The PowerStack paper's use cases all involve components that act *over
time*: resource managers admitting jobs, runtimes adjusting power caps
every control interval, applications progressing through phases.  This
subpackage provides a small, dependency-free discrete-event simulation
(DES) kernel in the style of SimPy:

* :class:`~repro.sim.engine.Environment` — the event loop and clock.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout`,
  :class:`~repro.sim.engine.Process` — the primitives simulated actors
  are written with (generator-based coroutines that wait on one event
  at a time; :class:`~repro.sim.engine.Interrupt` stops a wait early).
* :class:`~repro.sim.rng.RandomStreams` — named, reproducible random
  number streams so experiments are deterministic for a given seed.

The scheduler, the job simulators and the node monitors are built on
these alone.
"""

from repro.sim.engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Timeout",
]
