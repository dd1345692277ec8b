"""In-memory span tracer that times the stack's layers from outside.

Every layer boundary the benchmark cares about is a public function or
method of ``repro``; :func:`wrap` replaces it (module attribute, class
attribute or instance attribute) with a wrapper that records one span
per call: name, start, end and the enclosing span.  Self time is the
span's duration minus the time covered by its child spans, computed as
spans close, so the per-name statistics need no post-processing.

Spans are kept per thread (the network server dispatches on an executor
thread while its event loop frames bytes) and merged at the end.  The
first ``keep_spans`` spans are retained verbatim for :meth:`dump`; every
span feeds the statistics.
"""

from __future__ import annotations

import itertools
import json
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

Name = Union[str, Callable[..., str]]


class _Stat:
    __slots__ = ("durations", "selfs")

    def __init__(self) -> None:
        self.durations = array("d")
        self.selfs = array("d")


class _ThreadState:
    def __init__(self, thread: str) -> None:
        self.thread = thread
        #: Open spans: [span id, start, child time, parent id, thread state].
        self.stack: List[list] = []
        self.stats: Dict[str, _Stat] = {}
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, array] = {}


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self, keep_spans: int = 20_000) -> None:
        self.keep_spans = keep_spans
        self.spans: List[tuple] = []
        #: First span start and last span end: the traced activity window.
        self.first_start: Optional[float] = None
        self.last_end = 0.0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- recording ---------------------------------------------------------
    def enter(self) -> list:
        state = self._state()
        parent = state.stack[-1][0] if state.stack else 0
        frame = [next(self._ids), 0.0, 0.0, parent, state]
        state.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list, name: str) -> None:
        end = perf_counter()
        state = frame[4]
        state.stack.pop()
        duration = end - frame[1]
        if state.stack:
            state.stack[-1][2] += duration
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = _Stat()
        stat.durations.append(duration)
        stat.selfs.append(duration - frame[2])
        if self.first_start is None:
            self.first_start = frame[1]
        self.last_end = end
        if len(self.spans) < self.keep_spans:
            self.spans.append((frame[0], frame[3], name, frame[1], end, state.thread))

    def count(self, name: str, amount: float = 1.0) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        samples = self._state().samples
        values = samples.get(name)
        if values is None:
            values = samples[name] = array("d")
        values.append(value)

    # -- results -----------------------------------------------------------
    def merged(self) -> Dict[str, Any]:
        """Per-name duration/self arrays, counters and samples, all threads."""
        with self._lock:
            states = list(self._states)
        durations: Dict[str, List[array]] = {}
        selfs: Dict[str, List[array]] = {}
        counters: Dict[str, float] = {}
        samples: Dict[str, List[array]] = {}
        for state in states:
            for name, stat in list(state.stats.items()):
                durations.setdefault(name, []).append(stat.durations)
                selfs.setdefault(name, []).append(stat.selfs)
            for name, value in list(state.counters.items()):
                counters[name] = counters.get(name, 0.0) + value
            for name, values in list(state.samples.items()):
                samples.setdefault(name, []).append(values)

        def join(parts: List[array]) -> np.ndarray:
            return np.concatenate([np.frombuffer(p, dtype=np.float64) for p in parts])

        return {
            "durations": {name: join(parts) for name, parts in durations.items()},
            "selfs": {name: join(parts) for name, parts in selfs.items()},
            "counters": counters,
            "samples": {name: join(parts) for name, parts in samples.items()},
        }

    def dump(self, path: str) -> None:
        """Write the retained spans as JSON lines (id, parent, name, start, end, thread)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, thread in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "thread": thread}
                    )
                )
                fh.write("\n")


def wrap(
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: Name,
    before: Optional[Callable[..., None]] = None,
    after: Optional[Callable[..., None]] = None,
) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``name`` is the span name, or a callable computing it from the call's
    arguments (per-op service spans).  ``before(args, kwargs)`` runs
    inside the span before the call; ``after(result, args)`` after it.
    """
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if isinstance(raw, staticmethod):
        fn = raw.__func__
    else:
        fn = getattr(owner, attr)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span_name = name(*args, **kwargs) if callable(name) else name
        frame = tracer.enter()
        try:
            if before is not None:
                before(args, kwargs)
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, span_name)
        if after is not None:
            after(result, args)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)


def wrap_generator(tracer: Tracer, owner: Any, attr: str, name: str) -> None:
    """Time every resume of the generators ``owner.attr`` returns.

    DES processes are generators: calling the function does no work, the
    engine's ``send``/``throw`` does.  The replacement delegates to the
    original generator and records one span per resume.
    """
    fn = getattr(owner, attr)

    def timed(generator):
        method, value = generator.send, None
        while True:
            frame = tracer.enter()
            try:
                target = method(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit(frame, name)
            try:
                value = yield target
                method = generator.send
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as error:  # forwarded into the simulator
                method, value = generator.throw, error

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return timed(fn(*args, **kwargs))

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    setattr(owner, attr, wrapper)


class TimedLock:
    """Lock proxy timing how long each acquisition waits (a span per wait)."""

    def __init__(self, lock: Any, tracer: Tracer, name: str) -> None:
        self._lock = lock
        self._tracer = tracer
        self._name = name

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        frame = self._tracer.enter()
        try:
            return self._lock.acquire(*args, **kwargs)
        finally:
            self._tracer.exit(frame, self._name)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self._lock.release()
