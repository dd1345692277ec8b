"""Registry of runnable use cases.

Each use-case module registers its module-level ``run_use_case``
function with :func:`register_use_case`; the registry is what the
campaign runner and the CLI dispatch through by name.  Registration
introspects the function signature for the parameter defaults, so the
declarative layer and the implementation can never drift apart.

The runner must be a *module-level* function: a ``process`` campaign's
workers find it by use-case name in their own registry, which each
fresh worker repopulates on import.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.experiments.scenarios import BudgetTrace, ScenarioSpec

__all__ = [
    "UseCaseDef",
    "register_use_case",
    "get_use_case",
    "list_use_cases",
    "build_scenario",
    "run_registered",
    "scalar_metrics",
]

_REGISTRY: Dict[str, "UseCaseDef"] = {}


@dataclass(frozen=True)
class UseCaseDef:
    """A registered use case: runner + campaign metadata."""

    name: str
    runner: Callable[..., Dict[str, Any]]
    description: str
    #: Keyword defaults introspected from the runner signature (sans seed).
    defaults: Mapping[str, Any]
    #: The runner kwarg a scenario's budget trace writes per segment
    #: (None: the use case has no per-node budget knob).
    budget_param: Optional[str]
    #: Key into :func:`scalar_metrics` output used as the database objective.
    objective_metric: str
    minimize: bool

    def validate_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Reject overrides that do not match the runner's keywords."""
        unknown = sorted(set(params) - set(self.defaults))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for use case {self.name!r}; "
                f"available: {sorted(self.defaults)}"
            )
        return dict(params)

    def run(self, seed: int, **params: Any) -> Dict[str, Any]:
        """Run the experiment at one seed with validated overrides."""
        return self.runner(seed=int(seed), **self.validate_params(params))


def register_use_case(
    name: str,
    *,
    description: str = "",
    budget_param: Optional[str] = None,
    objective_metric: str = "",
    minimize: bool = True,
) -> Callable[[Callable[..., Dict[str, Any]]], Callable[..., Dict[str, Any]]]:
    """Decorator registering a module-level experiment function.

    The function must accept ``seed`` plus keyword parameters with
    defaults; those defaults become the scenario's base parameters.
    """

    def decorate(runner: Callable[..., Dict[str, Any]]) -> Callable[..., Dict[str, Any]]:
        signature = inspect.signature(runner)
        if "seed" not in signature.parameters:
            raise TypeError(f"use case {name!r} runner must accept a 'seed' keyword")
        defaults = {
            param.name: param.default
            for param in signature.parameters.values()
            if param.name != "seed" and param.default is not inspect.Parameter.empty
        }
        if budget_param is not None and budget_param not in defaults:
            raise TypeError(
                f"budget_param {budget_param!r} is not a keyword of use case {name!r}"
            )
        doc_lines = (inspect.getdoc(runner) or "").splitlines()
        _REGISTRY[name] = UseCaseDef(
            name=name,
            runner=runner,
            description=description or (doc_lines[0] if doc_lines else name),
            defaults=defaults,
            budget_param=budget_param,
            objective_metric=objective_metric,
            minimize=minimize,
        )
        return runner

    return decorate


def _ensure_builtin() -> None:
    """Import the seven use-case modules so they self-register (lazy to
    avoid an import cycle: the use cases import this module)."""
    import repro.core.usecases  # noqa: F401  (import for side effect)


def get_use_case(name: str) -> UseCaseDef:
    _ensure_builtin()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown use case {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def list_use_cases() -> Tuple[UseCaseDef, ...]:
    """All registered use cases, sorted by name."""
    _ensure_builtin()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def run_registered(name: str, seed: int = 1, **params: Any) -> Dict[str, Any]:
    """Run a registered use case by name, with validated overrides."""
    return get_use_case(name).run(seed=seed, **params)


def build_scenario(
    use_case: str,
    params: Optional[Mapping[str, Any]] = None,
    seeds: Sequence[int] = (1,),
    budget_trace: Optional[BudgetTrace] = None,
    name: str = "",
    tags: Optional[Mapping[str, str]] = None,
    fault_profile: Optional[str] = None,
) -> ScenarioSpec:
    """Build a validated :class:`ScenarioSpec` for a registered use case."""
    defn = get_use_case(use_case)
    overrides = defn.validate_params(params or {})
    if budget_trace is not None and defn.budget_param is None:
        raise ValueError(
            f"use case {use_case!r} has no budget parameter; "
            "it cannot take a budget-trace axis"
        )
    if fault_profile is not None:
        from repro.faults.profiles import PROFILES

        if fault_profile not in PROFILES:
            raise ValueError(
                f"unknown fault profile {fault_profile!r}; known: {sorted(PROFILES)}"
            )
    return ScenarioSpec(
        use_case=use_case,
        name=name,
        params=overrides,
        seeds=seeds,
        budget_trace=budget_trace,
        tags=tags or {},
        fault_profile=fault_profile,
    )


def scalar_metrics(
    result: Mapping[str, Any], max_depth: int = 4, _prefix: str = ""
) -> Dict[str, float]:
    """Flatten a use-case result dictionary to dotted numeric leaves.

    Nested dictionaries flatten to ``outer.inner`` keys; booleans become
    0.0/1.0; lists and non-numeric leaves are dropped.  This is the
    uniform shape the campaign stores in the performance database.
    """
    flat: Dict[str, float] = {}
    for key, value in result.items():
        name = f"{_prefix}{key}"
        if isinstance(value, bool):
            flat[name] = float(value)
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
        elif isinstance(value, Mapping) and max_depth > 1:
            flat.update(
                scalar_metrics(value, max_depth=max_depth - 1, _prefix=f"{name}.")
            )
    return flat
