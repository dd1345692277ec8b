"""The paper's primary contribution: the end-to-end auto-tuning framework.

Figure 1's orange box — "the PowerStack end-to-end auto-tuning
framework" — is implemented here.  The pieces mirror the paper's §3
structure:

* **tunable parameters at each layer** —
  :mod:`repro.core.parameters`, :mod:`repro.core.space` (typed parameter
  spaces with dependency constraints, tagged by PowerStack layer),
* **objectives and constraints** — :mod:`repro.core.objectives`,
  :mod:`repro.core.constraints` (the smallest runtime / lowest power /
  lowest energy under a system power cap),
* **search** — :mod:`repro.core.search` (random, grid, Latin hypercube,
  simulated annealing, genetic, GP Bayesian optimisation, random-forest
  surrogate; all ask/tell),
* **the tuning loops** — :mod:`repro.core.tuner` (single-layer,
  ytopt-style), :mod:`repro.core.cotuner` (co-tuning of two or more
  layers), :mod:`repro.core.endtoend` (the full Figure 1 loop over a
  simulated PowerStack),
* **layer interfaces and goal translation** —
  :mod:`repro.core.interfaces` (Table 1/Table 3 registries),
  :mod:`repro.core.translation` (site → system → job → node budget
  translation and upward metric aggregation),
* **the assembled stack** — :mod:`repro.core.stack`, and the seven §3.2
  use cases under :mod:`repro.core.usecases`.
"""

from repro.core.constraints import Constraint, ConstraintSet, ForbiddenCombination, MetricConstraint
from repro.core.cotuner import CoTuner, CoTuningResult
from repro.core.endtoend import EndToEndResult, EndToEndTuner
from repro.core.objectives import Objective, WeightedObjective, make_objective
from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
)
from repro.core.space import ParameterSpace
from repro.core.stack import PowerStack, PowerStackConfig
from repro.core.translation import GoalTranslator, TranslationStep
from repro.core.tuner import Autotuner, EvaluationCache, TuningResult

__all__ = [
    "Autotuner",
    "BooleanParameter",
    "CategoricalParameter",
    "CoTuner",
    "CoTuningResult",
    "Constraint",
    "ConstraintSet",
    "EndToEndResult",
    "EndToEndTuner",
    "EvaluationCache",
    "FloatParameter",
    "ForbiddenCombination",
    "GoalTranslator",
    "IntegerParameter",
    "MetricConstraint",
    "Objective",
    "OrdinalParameter",
    "Parameter",
    "ParameterSpace",
    "PowerStack",
    "PowerStackConfig",
    "TranslationStep",
    "TuningResult",
    "WeightedObjective",
    "make_objective",
]
