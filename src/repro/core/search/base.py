"""The ask/tell search interface and the algorithm factory.

Besides the scalar ``ask()`` / ``tell()`` protocol, every algorithm
supports a batch protocol — :meth:`SearchAlgorithm.ask_batch` proposes
``n`` configurations at once and :meth:`SearchAlgorithm.tell_batch`
reports their objectives together.  The base implementations fall back
to scalar loops (and are exact for ``n == 1``, so a batch tuner with
batch size 1 reproduces the sequential loop bit-for-bit); algorithms
with natural batch structure (population proposals in the genetic
search, single-surrogate-fit top-``n`` acquisition in the Bayesian and
forest searches, batched grid/LHS draws) override them with efficient
whole-generation versions.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.space import ParameterSpace
from repro.sim.rng import RandomStreams

__all__ = [
    "SearchAlgorithm",
    "SurrogateSearch",
    "config_key",
    "expected_improvement",
    "make_search",
    "search_class",
    "SEARCH_REGISTRY",
]


def config_key(config: Mapping[str, Any]) -> tuple:
    """Canonical hashable key for a configuration dictionary.

    Order-insensitive and value-type-safe (``repr`` keeps ``1`` and
    ``"1"`` distinct).  Shared by the repeat-avoidance sets, the batch
    acquisition dedupe and the evaluation memoization cache so all of
    them agree on what "the same configuration" means.
    """
    return tuple(sorted(zip(config, map(repr, config.values()))))


def expected_improvement(improvement: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Expected improvement ``I·Φ(I/σ) + σ·φ(I/σ)`` of a Gaussian prediction.

    The acquisition both surrogate searches maximise.  scipy is imported
    on the first call, so only a process that fits a surrogate pays for
    loading it.
    """
    from scipy.stats import norm

    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


class SearchAlgorithm(abc.ABC):
    """Base class: propose configurations (ask), learn from results (tell).

    The objective passed to :meth:`tell` is always *minimised*; the tuner
    handles direction and constraint penalties.
    """

    name = "search"

    def __init__(self, space: ParameterSpace, seed: int = 0):
        self.space = space
        self.streams = RandomStreams(seed)
        self.rng = self.streams.stream(f"search.{self.name}")
        #: Evaluated (config, objective) pairs in tell() order.
        self.history: List[Tuple[Dict[str, Any], float]] = []

    # -- interface -------------------------------------------------------------------
    @abc.abstractmethod
    def ask(self) -> Dict[str, Any]:
        """Propose the next configuration to evaluate."""

    def tell(self, config: Mapping[str, Any], objective: float) -> None:
        """Report the measured objective for a configuration."""
        self.history.append((dict(config), float(objective)))

    # -- batch interface ---------------------------------------------------------------
    def ask_batch(self, n: int) -> List[Dict[str, Any]]:
        """Propose up to ``n`` configurations to evaluate together.

        The default repeats :meth:`ask` without intermediate tells, so the
        proposals are what the algorithm would ask with no new information
        — exactly the parallel-evaluation semantics.  ``ask_batch(1)`` is
        always equivalent to ``[ask()]``.  May return fewer than ``n``
        configurations when the algorithm is exhausted mid-batch.
        """
        if n < 1:
            raise ValueError("batch size must be >= 1")
        out: List[Dict[str, Any]] = []
        for _ in range(n):
            if self.is_exhausted():
                break
            out.append(self.ask())
        return out

    def tell_batch(
        self, configs: Sequence[Mapping[str, Any]], objectives: Sequence[float]
    ) -> None:
        """Report measured objectives for a batch of configurations."""
        if len(configs) != len(objectives):
            raise ValueError(
                f"got {len(configs)} configs but {len(objectives)} objectives"
            )
        for config, objective in zip(configs, objectives):
            self.tell(config, objective)

    def is_exhausted(self) -> bool:
        """True when the algorithm has nothing new to propose (grid search)."""
        return False

    # -- helpers ----------------------------------------------------------------------
    def _select_top_distinct(
        self, pool: Sequence[Dict[str, Any]], scores: Sequence[float], n: int
    ) -> List[Dict[str, Any]]:
        """Top-``n`` distinct configurations from ``pool`` by descending score.

        Shared by the surrogate searches' ``ask_batch`` (one acquisition
        sweep, many proposals).  Pads with fresh random samples when the
        pool holds fewer than ``n`` distinct configurations; may return a
        short batch when the space itself is nearly exhausted.
        """
        out: List[Dict[str, Any]] = []
        seen: set = set()
        for i in np.argsort(-np.asarray(scores, dtype=float)):
            key = config_key(pool[i])
            if key in seen:
                continue
            seen.add(key)
            out.append(dict(pool[i]))
            if len(out) == n:
                break
        for _ in range(5):
            if len(out) == n:
                break
            for config in self.space.sample_many(self.rng, n - len(out)):
                key = config_key(config)
                if key not in seen:
                    seen.add(key)
                    out.append(config)
        return out

    def best(self) -> Optional[Tuple[Dict[str, Any], float]]:
        if not self.history:
            return None
        return min(self.history, key=lambda item: item[1])

    def observed_configs(self) -> List[Dict[str, Any]]:
        return [config for config, _ in self.history]

    def observed_objectives(self) -> np.ndarray:
        return np.array([obj for _, obj in self.history], dtype=float)

    def _random_config(self) -> Dict[str, Any]:
        return self.space.sample(self.rng)


class SurrogateSearch(SearchAlgorithm):
    """Shared skeleton for model-based searches (SMAC/BO style).

    Subclasses supply the surrogate by implementing :meth:`_fit` (train on
    the finite history, return the objective vector) and :meth:`_score`
    (acquisition value for a candidate pool).  The skeleton provides both
    loops: scalar :meth:`ask` (fit → scalar candidate pool → argmax) and
    :meth:`ask_batch` (fit once → vectorized pool → top-``n`` distinct),
    so the two paths cannot drift apart.

    The scalar pool intentionally draws one config at a time (preserving
    the historical sequential RNG stream) while the batch pool uses the
    vectorized ``sample_many``; both are constraint-filtered.
    """

    #: Objectives at or above this are treated as penalties, not data.
    PENALTY_THRESHOLD = 1e17

    #: Subclasses set these in __init__.
    initial_random: int
    candidates: int

    @abc.abstractmethod
    def _fit(self, finite: List[Tuple[Dict[str, Any], float]]) -> np.ndarray:
        """Fit the surrogate on the finite history; return the objectives."""

    @abc.abstractmethod
    def _score(self, pool: List[Dict[str, Any]], objectives: np.ndarray) -> np.ndarray:
        """Acquisition score (higher is better) for each pool candidate."""

    def _finite_history(self) -> List[Tuple[Dict[str, Any], float]]:
        return [
            (c, o)
            for c, o in self.history
            if np.isfinite(o) and o < self.PENALTY_THRESHOLD
        ]

    def _candidate_pool(self) -> List[Dict[str, Any]]:
        pool = [self._random_config() for _ in range(self.candidates)]
        best = self.best()
        if best is not None:
            pool.extend(self.space.neighbors(best[0], self.rng))
        return [c for c in pool if self.space.is_allowed(c)] or pool

    def ask(self) -> Dict[str, Any]:
        finite = self._finite_history()
        if len(finite) < self.initial_random:
            return self._random_config()
        objectives = self._fit(finite)
        pool = self._candidate_pool()
        scores = self._score(pool, objectives)
        return dict(pool[int(np.argmax(scores))])

    def ask_batch(self, n: int) -> List[Dict[str, Any]]:
        """Fit the surrogate once and return the top-``n`` distinct candidates.

        One surrogate fit + one acquisition sweep per batch instead of one
        per configuration — the dominant cost of the sequential loop.
        """
        if n < 1:
            raise ValueError("batch size must be >= 1")
        if n == 1:
            return [self.ask()]
        finite = self._finite_history()
        if len(finite) < self.initial_random:
            return self.space.sample_many(self.rng, n)
        objectives = self._fit(finite)
        pool = self.space.sample_many(self.rng, self.candidates)
        best = self.best()
        if best is not None:
            pool.extend(self.space.neighbors(best[0], self.rng))
        scores = self._score(pool, objectives)
        return self._select_top_distinct(pool, scores, n)


#: Registry of search algorithms keyed by their short name.
SEARCH_REGISTRY: Dict[str, type] = {}


def register_search(cls):
    SEARCH_REGISTRY[cls.name] = cls
    return cls


def search_class(name: str) -> type:
    """The registered search algorithm class for ``name``; ``ValueError``
    when no search is registered under it."""
    key = name.strip().lower()
    if key not in SEARCH_REGISTRY:
        raise ValueError(f"unknown search algorithm {name!r}; available: {sorted(SEARCH_REGISTRY)}")
    return SEARCH_REGISTRY[key]


def make_search(name: str, space: ParameterSpace, seed: int = 0, **kwargs: Any) -> SearchAlgorithm:
    """Instantiate a search algorithm by name (``"random"``, ``"forest"``, ...)."""
    return search_class(name)(space, seed=seed, **kwargs)
