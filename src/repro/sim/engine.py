"""Minimal discrete-event simulation kernel.

The kernel follows the classic event-list design: an
:class:`Environment` owns a priority queue of scheduled events ordered
by ``(time, priority, sequence)``.  Simulated actors are ordinary Python
generators wrapped in :class:`Process`; they advance by ``yield``-ing
events (most commonly :class:`Timeout`) and are resumed when the yielded
event is processed.

The implementation intentionally mirrors SimPy's public surface for the
subset the stack uses (``env.process``, ``env.timeout``, ``env.run``,
``event.succeed``, process interrupts), so readers familiar with SimPy
can follow the higher-level PowerStack components without learning a
new API.  A process waits on one event at a time: it yields the event,
or another process, and resumes with its value.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "Environment",
]

# Event priorities: URGENT events (process starts and interrupts) run
# before NORMAL events scheduled at the same timestamp.
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for illegal kernel operations (double-trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the object passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An event that may be triggered (succeeded or failed) once.

    Processes wait on events by yielding them.  Callbacks registered in
    :attr:`callbacks` are invoked (with the event as the only argument)
    when the environment processes the event.

    ``__slots__`` keeps per-event allocation small: long simulations
    create millions of events, so the dict-free layout measurably cuts
    memory traffic in the hot loop.  (Subclasses outside this module that
    declare extra attributes without ``__slots__`` simply regain a
    ``__dict__`` — nothing breaks.)
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event.PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Immediately-scheduled event used to start a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """Wraps a generator so it can be driven by the event loop.

    The process itself is an event that triggers when the generator
    finishes; its value is the generator's return value, which lets one
    process ``yield`` another and collect its result.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever the process was waiting on: the old target must
        # not resume it a second time after the interrupt is delivered.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        # Jump the queue: interrupts are delivered before other events at
        # the same timestamp.
        interrupt_event.callbacks = [self._resume]
        self.env._schedule(interrupt_event, URGENT)

    # -- generator driving ----------------------------------------------
    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, Interrupt) or isinstance(exc, BaseException):
                        next_target = self._generator.throw(exc)
                    else:  # pragma: no cover - defensive
                        next_target = self._generator.throw(
                            SimulationError(repr(exc))
                        )
            except StopIteration as stop:
                self._target = None
                self._ok = True
                self._value = stop.value
                self.env._schedule(self, NORMAL)
                break
            except BaseException as exc:  # process died with an error
                self._target = None
                self._ok = False
                self._value = exc
                self._defused = False
                self.env._schedule(self, NORMAL)
                break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process yielded a non-event: {next_target!r}"
                )
                event = Event(self.env)
                event._ok = False
                event._value = exc
                continue

            if next_target.callbacks is not None:
                # Not yet processed: register and suspend.
                self._target = next_target
                next_target.callbacks.append(self._resume)
                break
            # Already processed: loop immediately with its value.
            event = next_target

        self.env._active_process = None


class Environment:
    """The simulation environment: clock, event queue, and run loop."""

    __slots__ = ("_now", "_queue", "_eid", "_active_process")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- properties ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _prio, _eid, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled process failure: propagate to the caller of run().
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(repr(value))  # pragma: no cover

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or queue exhaustion).

        * ``until=None`` — run until no events remain.
        * ``until=<number>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until the event is processed; its value
          is returned.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
            else:
                stop_time = float(until)
                if stop_time < self._now:
                    raise ValueError(
                        f"until ({stop_time}) must not be before now ({self._now})"
                    )

        while self._queue:
            if stop_event is not None and stop_event.processed:
                break
            if stop_time is not None and self.peek() > stop_time:
                self._now = stop_time
                break
            self.step()
        else:
            if stop_time is not None:
                self._now = stop_time

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run() finished but the 'until' event was never triggered"
                )
            if not stop_event.ok:
                raise stop_event._value
            return stop_event._value
        return None
