"""Cross-layer parameter spaces.

A :class:`ParameterSpace` is an ordered collection of typed parameters
(:mod:`repro.core.parameters`), each tagged with the PowerStack layer it
belongs to, plus the configuration-level constraints that make some
combinations illegal.  It provides the encode/decode machinery the
numeric search algorithms need and the sampling/grid machinery the
simple ones need, and it can be sliced by layer or merged with another
space — which is exactly the operation co-tuning performs ("a
combination of different parameters at the distinct layers", §3.2.3).

The batch APIs (:meth:`ParameterSpace.encode_many`,
:meth:`ParameterSpace.decode_many`, :meth:`ParameterSpace.sample_many`)
are vectorized column-wise over the parameters, and the name/parameter
lists consulted on every encode/validate call are cached (invalidated by
:meth:`ParameterSpace.add`) so the tuning hot loop does not rebuild them
per configuration.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import Constraint, ConstraintSet
from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    OrdinalParameter,
    Parameter,
)

__all__ = ["ParameterSpace"]


class ParameterSpace:
    """An ordered, constrained collection of tunable parameters."""

    def __init__(
        self,
        parameters: Optional[Iterable[Parameter]] = None,
        constraints: Optional[ConstraintSet] = None,
        name: str = "space",
    ):
        self.name = name
        self._parameters: Dict[str, Parameter] = {}
        self.constraints = constraints or ConstraintSet()
        # Caches of the (ordered) name and parameter tuples; rebuilt lazily
        # after add() invalidates them.  encode/validate consult these on
        # every configuration, so rebuilding per call dominates small-space
        # tuning loops.  Tuples, so callers cannot mutate the shared cache.
        self._names_cache: Optional[Tuple[str, ...]] = None
        self._params_cache: Optional[Tuple[Parameter, ...]] = None
        for param in parameters or []:
            self.add(param)

    # -- construction --------------------------------------------------------------
    def add(self, parameter: Parameter) -> "ParameterSpace":
        if parameter.name in self._parameters:
            raise ValueError(f"duplicate parameter {parameter.name!r}")
        self._parameters[parameter.name] = parameter
        self._names_cache = None
        self._params_cache = None
        return self

    def add_constraint(self, constraint: Constraint) -> "ParameterSpace":
        self.constraints.add(constraint)
        return self

    @classmethod
    def from_dict(
        cls,
        values: Mapping[str, Sequence[Any]],
        layer: str = "application",
        name: str = "space",
        ordinal: bool = True,
    ) -> "ParameterSpace":
        """Build a space from ``{name: allowed_values}`` (application style).

        Numeric value lists become ordinal parameters (they have a natural
        order the search can exploit); everything else becomes categorical.
        """
        space = cls(name=name)
        for key, allowed in values.items():
            allowed = list(allowed)
            if allowed and all(isinstance(v, (bool, np.bool_)) for v in allowed) and set(allowed) == {False, True}:
                space.add(BooleanParameter(key, layer=layer))
            elif ordinal and allowed and all(
                isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
                for v in allowed
            ):
                space.add(OrdinalParameter(key, sorted(allowed), layer=layer))
            else:
                space.add(CategoricalParameter(key, allowed, layer=layer))
        return space

    def merge(self, other: "ParameterSpace", name: Optional[str] = None) -> "ParameterSpace":
        """Union of two spaces (parameters and constraints)."""
        merged = ParameterSpace(name=name or f"{self.name}+{other.name}")
        for param in self.parameters():
            merged.add(param)
        for param in other.parameters():
            merged.add(param)
        for constraint in self.constraints:
            merged.add_constraint(constraint)
        for constraint in other.constraints:
            merged.add_constraint(constraint)
        return merged

    # -- introspection -----------------------------------------------------------------
    def parameters(self) -> Tuple[Parameter, ...]:
        """The parameters in insertion order (cached, immutable)."""
        if self._params_cache is None:
            self._params_cache = tuple(self._parameters.values())
        return self._params_cache

    def names(self) -> Tuple[str, ...]:
        """The parameter names in insertion order (cached, immutable)."""
        if self._names_cache is None:
            self._names_cache = tuple(self._parameters.keys())
        return self._names_cache

    def layers(self) -> List[str]:
        seen: List[str] = []
        for param in self.parameters():
            if param.layer not in seen:
                seen.append(param.layer)
        return seen

    def __len__(self) -> int:
        return len(self._parameters)

    def __contains__(self, name: str) -> bool:
        return name in self._parameters

    def __getitem__(self, name: str) -> Parameter:
        return self._parameters[name]

    def cardinality(self) -> float:
        """Number of grid points (inf-like large for continuous parameters).

        Uses each parameter's :meth:`~repro.core.parameters.Parameter.grid_size`
        so no grid list is materialized.
        """
        total = 1.0
        for param in self.parameters():
            total *= max(1, param.grid_size(resolution=10))
        return total

    # -- configurations ---------------------------------------------------------------------
    def validate(self, config: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate (and canonicalise) a full configuration."""
        parameters = self._parameters
        if config.keys() != parameters.keys():  # one length test, one membership pass
            unknown = set(config) - set(parameters)
            if unknown:
                raise KeyError(f"unknown parameters: {sorted(unknown)}")
            raise KeyError(f"missing parameters: {sorted(set(parameters) - set(config))}")
        return {name: param.validate(config[name]) for name, param in parameters.items()}

    def is_allowed(self, config: Mapping[str, Any]) -> bool:
        """Whether a configuration passes the dependency constraints."""
        return self.constraints.allows_config(config)

    def sample(self, rng: np.random.Generator, max_tries: int = 200) -> Dict[str, Any]:
        """Draw a random *allowed* configuration."""
        for _ in range(max_tries):
            config = {name: param.sample(rng) for name, param in self._parameters.items()}
            if self.is_allowed(config):
                return config
        raise RuntimeError(
            f"could not sample an allowed configuration from {self.name!r} "
            f"after {max_tries} tries — constraints may be unsatisfiable"
        )

    def sample_many(
        self, rng: np.random.Generator, count: int, max_rounds: int = 200
    ) -> List[Dict[str, Any]]:
        """Draw ``count`` random *allowed* configurations, vectorized.

        Each round draws a whole batch column-wise (one vectorized
        ``sample_array`` call per parameter) and filters out configurations
        rejected by the constraints; rejected slots are redrawn the next
        round.  This consumes the RNG differently from ``count`` scalar
        :meth:`sample` calls, so batch and sequential paths are separate
        deterministic streams.
        """
        if count <= 0:
            return []
        out: List[Dict[str, Any]] = []
        needed = count
        has_constraints = len(self.constraints) > 0
        names = self.names()
        parameters = self.parameters()
        for _ in range(max_rounds):
            columns = [param.sample_array(rng, needed) for param in parameters]
            for row in zip(*columns) if columns else [()] * needed:
                config = dict(zip(names, row))
                if not has_constraints or self.is_allowed(config):
                    out.append(config)
            needed = count - len(out)
            if needed == 0:
                return out
        raise RuntimeError(
            f"could not sample {count} allowed configurations from {self.name!r} "
            f"after {max_rounds} rounds — constraints may be unsatisfiable"
        )

    def grid_configurations(self, resolution: int = 10) -> Iterator[Dict[str, Any]]:
        """Iterate the (constrained) cartesian grid of representative values."""
        names = self.names()
        grids = [self._parameters[name].grid(resolution) for name in names]
        for combo in itertools.product(*grids):
            config = dict(zip(names, combo))
            if self.is_allowed(config):
                yield config

    def neighbors(self, config: Mapping[str, Any], rng: np.random.Generator) -> List[Dict[str, Any]]:
        """Configurations differing from ``config`` in exactly one parameter."""
        out: List[Dict[str, Any]] = []
        for name, param in self._parameters.items():
            for value in param.neighbors(config[name], rng):
                candidate = dict(config)
                candidate[name] = value
                if self.is_allowed(candidate):
                    out.append(candidate)
        return out

    # -- numeric encoding -----------------------------------------------------------------------
    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode a configuration as a vector in the unit hypercube."""
        validated = self.validate(config)
        return np.array(
            [self._parameters[name].to_unit(validated[name]) for name in self.names()],
            dtype=float,
        )

    def decode(self, vector: Sequence[float]) -> Dict[str, Any]:
        """Decode a unit-hypercube vector into the nearest configuration."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (len(self),):
            raise ValueError(f"expected a vector of length {len(self)}, got {vector.shape}")
        return {
            name: self._parameters[name].from_unit(float(u))
            for name, u in zip(self.names(), vector)
        }

    def encode_many(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode a batch of configurations as an ``(n, dims)`` unit matrix.

        Vectorized column-wise: one ``to_unit_array`` call per parameter
        instead of one ``encode`` call per configuration.
        """
        if not configs:
            return np.empty((0, len(self)))
        names = self.names()
        out = np.empty((len(configs), len(names)), dtype=float)
        for j, name in enumerate(names):
            param = self._parameters[name]
            out[:, j] = param.to_unit_array([c[name] for c in configs])
        return out

    def decode_many(self, matrix: Sequence[Sequence[float]]) -> List[Dict[str, Any]]:
        """Decode an ``(n, dims)`` unit matrix into configurations (vectorized)."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if matrix.size == 0:
            return []
        if matrix.shape[1] != len(self):
            raise ValueError(
                f"expected an (n, {len(self)}) matrix, got {matrix.shape}"
            )
        names = self.names()
        columns = {
            name: self._parameters[name].from_unit_array(matrix[:, j])
            for j, name in enumerate(names)
        }
        return [
            {name: columns[name][i] for name in names} for i in range(matrix.shape[0])
        ]

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """Summary used by Table 1 reporting: parameter -> layer and values."""
        out: Dict[str, Dict[str, Any]] = {}
        for param in self.parameters():
            out[param.name] = {
                "layer": param.layer,
                "type": type(param).__name__,
                "values": param.grid(resolution=6),
            }
        return out

    def __repr__(self) -> str:
        return f"ParameterSpace(name={self.name!r}, parameters={list(self.names())})"
