"""Typed tunable parameters.

Every knob in Table 1 — node counts and task counts at the system level,
agent and aggressiveness choices at the runtime level, solver and
preconditioner choices at the application level, frequencies and power
caps at the node level — becomes one of these parameter types.  Each
parameter knows how to

* validate and sample values,
* encode values into the unit interval (for the numeric search
  algorithms) and decode them back, and
* propose neighbouring values (for local-search style algorithms).

Each parameter also exposes *vectorized* batch variants
(:meth:`Parameter.to_unit_array`, :meth:`Parameter.from_unit_array`,
:meth:`Parameter.sample_array`) so :class:`~repro.core.space.ParameterSpace`
can encode, decode and sample whole batches of configurations with numpy
instead of per-value Python loops — the hot path of the batched tuning
engine.
"""

from __future__ import annotations

import abc
from typing import Any, List, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "CategoricalParameter",
    "OrdinalParameter",
    "BooleanParameter",
    "IntegerParameter",
    "FloatParameter",
]


class Parameter(abc.ABC):
    """Base class of all tunable parameters."""

    def __init__(self, name: str, layer: str = "application"):
        if not name:
            raise ValueError("parameter name must not be empty")
        self.name = name
        #: PowerStack layer the parameter belongs to (used by the co-tuner
        #: to slice the space and by Table 1 reporting).
        self.layer = layer

    # -- required interface ----------------------------------------------------------
    @abc.abstractmethod
    def validate(self, value: Any) -> Any:
        """Return a canonical version of ``value`` or raise ``ValueError``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniform random value."""

    @abc.abstractmethod
    def to_unit(self, value: Any) -> float:
        """Encode a value into [0, 1] for numeric surrogates."""

    @abc.abstractmethod
    def from_unit(self, u: float) -> Any:
        """Decode a [0, 1] position back into a value."""

    @abc.abstractmethod
    def grid(self, resolution: int = 10) -> List[Any]:
        """Representative values for exhaustive/grid search."""

    def neighbors(self, value: Any, rng: np.random.Generator) -> List[Any]:
        """Values adjacent to ``value`` (default: one fresh sample)."""
        return [self.sample(rng)]

    # -- vectorized batch interface (overridden where numpy can help) ---------------
    def to_unit_array(self, values: Sequence[Any]) -> np.ndarray:
        """Encode a batch of values into [0, 1] (default: scalar loop)."""
        return np.array([self.to_unit(v) for v in values], dtype=float)

    def from_unit_array(self, u: np.ndarray) -> List[Any]:
        """Decode a batch of [0, 1] positions (default: scalar loop)."""
        return [self.from_unit(float(x)) for x in np.asarray(u, dtype=float)]

    def sample_array(self, rng: np.random.Generator, count: int) -> List[Any]:
        """Draw ``count`` uniform random values (default: scalar loop)."""
        return [self.sample(rng) for _ in range(count)]

    def grid_size(self, resolution: int = 10) -> int:
        """Number of grid points without materializing the grid list."""
        return len(self.grid(resolution))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, layer={self.layer!r})"


class CategoricalParameter(Parameter):
    """An unordered choice among discrete values."""

    def __init__(self, name: str, values: Sequence[Any], layer: str = "application"):
        super().__init__(name, layer)
        if not values:
            raise ValueError(f"{name}: needs at least one value")
        self.values = list(values)
        self._index = {self._key(v): i for i, v in enumerate(self.values)}

    @staticmethod
    def _key(value: Any) -> Any:
        return value if not isinstance(value, list) else tuple(value)

    def validate(self, value: Any) -> Any:
        if self._key(value) not in self._index:
            raise ValueError(f"{self.name}: {value!r} not in {self.values}")
        return value

    def sample(self, rng: np.random.Generator) -> Any:
        return self.values[int(rng.integers(0, len(self.values)))]

    def to_unit(self, value: Any) -> float:
        idx = self._index[self._key(self.validate(value))]
        if len(self.values) == 1:
            return 0.0
        return idx / (len(self.values) - 1)

    def from_unit(self, u: float) -> Any:
        u = float(np.clip(u, 0.0, 1.0))
        idx = int(round(u * (len(self.values) - 1)))
        return self.values[idx]

    def grid(self, resolution: int = 10) -> List[Any]:
        return list(self.values)

    def grid_size(self, resolution: int = 10) -> int:
        return len(self.values)

    def neighbors(self, value: Any, rng: np.random.Generator) -> List[Any]:
        others = [v for v in self.values if self._key(v) != self._key(value)]
        if not others:
            return [value]
        return [others[int(rng.integers(0, len(others)))]]

    # -- vectorized batch interface ---------------------------------------------------
    def to_unit_array(self, values: Sequence[Any]) -> np.ndarray:
        idx = np.array([self._index[self._key(self.validate(v))] for v in values], dtype=float)
        if len(self.values) == 1:
            return np.zeros_like(idx)
        return idx / (len(self.values) - 1)

    def from_unit_array(self, u: np.ndarray) -> List[Any]:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        idx = np.rint(u * (len(self.values) - 1)).astype(int)
        return [self.values[i] for i in idx]

    def sample_array(self, rng: np.random.Generator, count: int) -> List[Any]:
        values = self.values
        return [values[i] for i in rng.integers(0, len(values), size=count).tolist()]


class OrdinalParameter(CategoricalParameter):
    """An ordered choice among discrete values (e.g. tile sizes, P-states)."""

    def neighbors(self, value: Any, rng: np.random.Generator) -> List[Any]:
        idx = self._index[self._key(self.validate(value))]
        out = []
        if idx > 0:
            out.append(self.values[idx - 1])
        if idx < len(self.values) - 1:
            out.append(self.values[idx + 1])
        return out or [value]


class BooleanParameter(CategoricalParameter):
    """A true/false switch."""

    def __init__(self, name: str, layer: str = "application"):
        super().__init__(name, [False, True], layer)

    def validate(self, value: Any) -> Any:
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{self.name}: expected a bool, got {value!r}")
        return bool(value)

    def neighbors(self, value: Any, rng: np.random.Generator) -> List[Any]:
        return [not self.validate(value)]


class IntegerParameter(Parameter):
    """An integer range [low, high] (inclusive), optionally log-scaled."""

    def __init__(
        self, name: str, low: int, high: int, log: bool = False, layer: str = "application"
    ):
        super().__init__(name, layer)
        if low > high:
            raise ValueError(f"{name}: low must be <= high")
        if log and low <= 0:
            raise ValueError(f"{name}: log scale requires low > 0")
        self.low = int(low)
        self.high = int(high)
        self.log = bool(log)

    def validate(self, value: Any) -> int:
        value = int(value)
        if not self.low <= value <= self.high:
            raise ValueError(f"{self.name}: {value} outside [{self.low}, {self.high}]")
        return value

    def sample(self, rng: np.random.Generator) -> int:
        return self.from_unit(float(rng.random()))

    def to_unit(self, value: Any) -> float:
        value = self.validate(value)
        if self.high == self.low:
            return 0.0
        if self.log:
            return (np.log(value) - np.log(self.low)) / (np.log(self.high) - np.log(self.low))
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> int:
        u = float(np.clip(u, 0.0, 1.0))
        if self.log:
            value = np.exp(np.log(self.low) + u * (np.log(self.high) - np.log(self.low)))
        else:
            value = self.low + u * (self.high - self.low)
        return int(np.clip(round(value), self.low, self.high))

    def grid(self, resolution: int = 10) -> List[int]:
        count = min(resolution, self.high - self.low + 1)
        return sorted({self.from_unit(u) for u in np.linspace(0.0, 1.0, count)})

    def grid_size(self, resolution: int = 10) -> int:
        if self.log:
            # Log-spaced rounding can collapse adjacent points: count exactly.
            return len(self.grid(resolution))
        return min(resolution, self.high - self.low + 1)

    # -- vectorized batch interface ---------------------------------------------------
    def to_unit_array(self, values: Sequence[Any]) -> np.ndarray:
        vals = np.array([self.validate(v) for v in values], dtype=float)
        if self.high == self.low:
            return np.zeros_like(vals)
        if self.log:
            return (np.log(vals) - np.log(self.low)) / (np.log(self.high) - np.log(self.low))
        return (vals - self.low) / (self.high - self.low)

    def from_unit_array(self, u: np.ndarray) -> List[int]:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        if self.log:
            vals = np.exp(np.log(self.low) + u * (np.log(self.high) - np.log(self.low)))
        else:
            vals = self.low + u * (self.high - self.low)
        clipped = np.clip(np.rint(vals), self.low, self.high).astype(int)
        return [int(v) for v in clipped]

    def sample_array(self, rng: np.random.Generator, count: int) -> List[int]:
        return self.from_unit_array(rng.random(count))

    def neighbors(self, value: Any, rng: np.random.Generator) -> List[int]:
        value = self.validate(value)
        step = max(1, (self.high - self.low) // 20)
        out = []
        if value - step >= self.low:
            out.append(value - step)
        if value + step <= self.high:
            out.append(value + step)
        return out or [value]


class FloatParameter(Parameter):
    """A continuous range [low, high], optionally log-scaled."""

    def __init__(
        self, name: str, low: float, high: float, log: bool = False, layer: str = "application"
    ):
        super().__init__(name, layer)
        if low > high:
            raise ValueError(f"{name}: low must be <= high")
        if log and low <= 0:
            raise ValueError(f"{name}: log scale requires low > 0")
        self.low = float(low)
        self.high = float(high)
        self.log = bool(log)

    def validate(self, value: Any) -> float:
        value = float(value)
        if not self.low - 1e-12 <= value <= self.high + 1e-12:
            raise ValueError(f"{self.name}: {value} outside [{self.low}, {self.high}]")
        return float(np.clip(value, self.low, self.high))

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_unit(float(rng.random()))

    def to_unit(self, value: Any) -> float:
        value = self.validate(value)
        if self.high == self.low:
            return 0.0
        if self.log:
            return float(
                (np.log(value) - np.log(self.low)) / (np.log(self.high) - np.log(self.low))
            )
        return float((value - self.low) / (self.high - self.low))

    def from_unit(self, u: float) -> float:
        u = float(np.clip(u, 0.0, 1.0))
        if self.log:
            return float(np.exp(np.log(self.low) + u * (np.log(self.high) - np.log(self.low))))
        return float(self.low + u * (self.high - self.low))

    def grid(self, resolution: int = 10) -> List[float]:
        return [self.from_unit(u) for u in np.linspace(0.0, 1.0, max(2, resolution))]

    def grid_size(self, resolution: int = 10) -> int:
        return max(2, resolution)

    # -- vectorized batch interface ---------------------------------------------------
    def to_unit_array(self, values: Sequence[Any]) -> np.ndarray:
        vals = np.array([self.validate(v) for v in values], dtype=float)
        if self.high == self.low:
            return np.zeros_like(vals)
        if self.log:
            return (np.log(vals) - np.log(self.low)) / (np.log(self.high) - np.log(self.low))
        return (vals - self.low) / (self.high - self.low)

    def from_unit_array(self, u: np.ndarray) -> List[float]:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        if self.log:
            vals = np.exp(np.log(self.low) + u * (np.log(self.high) - np.log(self.low)))
        else:
            vals = self.low + u * (self.high - self.low)
        return [float(v) for v in vals]

    def sample_array(self, rng: np.random.Generator, count: int) -> List[float]:
        return self.from_unit_array(rng.random(count))

    def neighbors(self, value: Any, rng: np.random.Generator) -> List[float]:
        value = self.validate(value)
        span = (self.high - self.low) * 0.1
        return [
            self.validate(np.clip(value + delta, self.low, self.high))
            for delta in (-span, span)
            if span > 0
        ] or [value]
