"""Gaussian-process Bayesian optimisation (expected improvement).

A standard BO loop built only on numpy/scipy: an RBF-kernel GP fit on
the unit-encoded configurations observed so far, expected improvement as
the acquisition function, and acquisition maximisation by scoring a
large random candidate set (plus neighbours of the incumbent).  Used by
the end-to-end tuner for expensive cross-layer evaluations and compared
against the random-forest surrogate in the ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from repro.core.search.base import SurrogateSearch, expected_improvement, register_search
from repro.core.space import ParameterSpace

__all__ = ["GaussianProcessSearch"]


class _GaussianProcess:
    """Minimal RBF-kernel GP regressor with a fixed nugget."""

    def __init__(self, length_scale: float = 0.25, noise: float = 1e-4, signal: float = 1.0):
        if length_scale <= 0 or noise <= 0 or signal <= 0:
            raise ValueError("GP hyperparameters must be positive")
        self.length_scale = length_scale
        self.noise = noise
        self.signal = signal
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
        sq = np.maximum(sq, 0.0)
        return self.signal * np.exp(-0.5 * sq / self.length_scale**2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        from scipy.linalg import cho_factor, cho_solve

        if len(x) == 0:
            raise ValueError("cannot fit a GP on zero observations")
        self._x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        y_norm = (y - self._y_mean) / self._y_std
        k = self._kernel(self._x, self._x) + self.noise * np.eye(len(self._x))
        self._chol = cho_factor(k, lower=True)
        self._alpha = cho_solve(self._chol, y_norm)

    def predict(self, x: np.ndarray) -> tuple:
        from scipy.linalg import cho_solve

        if self._x is None or self._alpha is None or self._chol is None:
            raise RuntimeError("the GP has not been fit")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k_star = self._kernel(x, self._x)
        mean = k_star @ self._alpha
        v = cho_solve(self._chol, k_star.T)
        var = self.signal - np.sum(k_star * v.T, axis=1)
        var = np.maximum(var, 1e-12)
        return mean * self._y_std + self._y_mean, np.sqrt(var) * self._y_std


@register_search
class GaussianProcessSearch(SurrogateSearch):
    """Bayesian optimisation with an RBF GP and expected improvement."""

    name = "bayesian"

    def __init__(
        self,
        space: ParameterSpace,
        seed: int = 0,
        initial_random: int = 8,
        candidates: int = 256,
        length_scale: float = 0.25,
        exploration: float = 0.01,
    ):
        super().__init__(space, seed)
        if initial_random < 1:
            raise ValueError("initial_random must be >= 1")
        if candidates < 8:
            raise ValueError("candidates must be >= 8")
        self.initial_random = int(initial_random)
        self.candidates = int(candidates)
        self.exploration = float(exploration)
        self._gp = _GaussianProcess(length_scale=length_scale)

    # -- surrogate interface ------------------------------------------------------------
    def _fit(self, finite: list) -> np.ndarray:
        objectives = np.array([o for _, o in finite])
        self._gp.fit(self.space.encode_many([c for c, _ in finite]), objectives)
        return objectives

    def _score(self, pool: list, objectives: np.ndarray) -> np.ndarray:
        mean, std = self._gp.predict(self.space.encode_many(pool))
        return expected_improvement(float(objectives.min()) - mean - self.exploration, std)

    def tell(self, config: Mapping[str, Any], objective: float) -> None:
        super().tell(config, objective)
