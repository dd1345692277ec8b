"""Co-tuning: joint optimisation of parameters from two or more layers.

The paper defines co-tuning as "the process of improving the target
metrics of two or more layers of the PowerStack by incorporating
cross-layer characteristics in the orchestration process" (§3).  The
:class:`CoTuner` builds one joint space out of per-layer spaces (names
are prefixed with the layer, so ``application.solver`` and
``runtime.agent`` coexist), runs a single search over it, and reports
the best configuration *per layer* so each layer's actor can apply its
slice.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.core.constraints import ConstraintSet
from repro.core.objectives import Objective, WeightedObjective
from repro.core.space import ParameterSpace
from repro.core.tuner import Autotuner, TuningResult
from repro.telemetry.database import PerformanceDatabase

__all__ = ["CoTuningResult", "CoTuner"]

#: A co-tuning evaluator receives ``{layer: {param: value}}``.
LayeredEvaluator = Callable[[Dict[str, Dict[str, Any]]], Mapping[str, float]]


class _FlatEvaluator:
    """Splits a flat prefixed configuration and calls the layered evaluator."""

    def __init__(self, layers: List[str], separator: str, evaluator: LayeredEvaluator):
        self.layers = list(layers)
        self.separator = separator
        self.evaluator = evaluator

    def split(self, flat_config: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
        nested: Dict[str, Dict[str, Any]] = {layer: {} for layer in self.layers}
        for key, value in flat_config.items():
            layer, _, param = key.partition(self.separator)
            if layer not in nested:
                raise KeyError(f"configuration key {key!r} does not match any layer")
            nested[layer][param] = value
        return nested

    def __call__(self, flat_config: Dict[str, Any]) -> Mapping[str, float]:
        return self.evaluator(self.split(flat_config))


@dataclass
class CoTuningResult:
    """Result of a co-tuning run, sliced by layer."""

    tuning: TuningResult
    best_by_layer: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    layers: List[str] = field(default_factory=list)

    @property
    def best_objective(self) -> float:
        return self.tuning.best_objective

    @property
    def best_metrics(self) -> Dict[str, float]:
        return self.tuning.best_metrics

    @property
    def database(self) -> PerformanceDatabase:
        return self.tuning.database

    def summary(self) -> Dict[str, Any]:
        data = self.tuning.summary()
        data["best_by_layer"] = self.best_by_layer
        data["layers"] = self.layers
        return data


class CoTuner:
    """Joint tuner over a dictionary of per-layer parameter spaces.

    One :class:`~repro.core.tuner.Autotuner` at its defaults runs the
    search over the joint space, one configuration at a time.
    """

    SEPARATOR = "."

    def __init__(
        self,
        layer_spaces: Mapping[str, ParameterSpace],
        evaluator: LayeredEvaluator,
        objective: Union[str, Objective, WeightedObjective] = "runtime",
        constraints: Optional[ConstraintSet] = None,
        search: str = "forest",
        max_evals: int = 100,
        seed: int = 0,
        name: str = "cotuner",
    ):
        if not layer_spaces:
            raise ValueError("co-tuning needs at least one layer space")
        self.layer_spaces = dict(layer_spaces)
        self.layers = list(layer_spaces)
        self.evaluator = evaluator
        self.joint_space = self._build_joint_space()
        self._flat_evaluator = _FlatEvaluator(self.layers, self.SEPARATOR, evaluator)
        self._autotuner = Autotuner(
            space=self.joint_space,
            evaluator=self._flat_evaluator,
            objective=objective,
            constraints=constraints,
            search=search,
            max_evals=max_evals,
            seed=seed,
            name=name,
        )

    # -- space composition -------------------------------------------------------------
    def _build_joint_space(self) -> ParameterSpace:
        joint = ParameterSpace(name="+".join(self.layers))
        for layer, space in self.layer_spaces.items():
            for param in space.parameters():
                renamed = copy.copy(param)
                renamed.name = f"{layer}{self.SEPARATOR}{param.name}"
                renamed.layer = layer
                joint.add(renamed)
            for constraint in space.constraints:
                joint.add_constraint(_PrefixedConstraint(layer, self.SEPARATOR, constraint))
        return joint

    def split(self, flat_config: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
        """Split a flat prefixed configuration into per-layer dictionaries."""
        return self._flat_evaluator.split(flat_config)

    # -- run ----------------------------------------------------------------------------
    @property
    def database(self) -> PerformanceDatabase:
        return self._autotuner.database

    def run(self, callback=None) -> CoTuningResult:
        result = self._autotuner.run(callback=callback)
        best_by_layer: Dict[str, Dict[str, Any]] = {}
        if result.best_config is not None:
            best_by_layer = self.split(result.best_config)
        return CoTuningResult(tuning=result, best_by_layer=best_by_layer, layers=self.layers)


class _PrefixedConstraint:
    """Adapts a layer-local constraint to the prefixed joint namespace."""

    def __init__(self, layer: str, separator: str, inner) -> None:
        self.layer = layer
        self.separator = separator
        self.inner = inner
        self.description = f"[{layer}] {getattr(inner, 'description', 'constraint')}"

    def _strip(self, config: Mapping[str, Any]) -> Dict[str, Any]:
        prefix = f"{self.layer}{self.separator}"
        return {k[len(prefix):]: v for k, v in config.items() if k.startswith(prefix)}

    def allows_config(self, config: Mapping[str, Any]) -> bool:
        return self.inner.allows_config(self._strip(config))

    def allows_metrics(self, metrics: Mapping[str, float]) -> bool:
        return self.inner.allows_metrics(metrics)
