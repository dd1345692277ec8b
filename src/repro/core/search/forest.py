"""Random-forest surrogate search (the ytopt default, from scratch).

§3.2.3: "autotuner assigns the values in the allowed ranges (using
random forests as default)".  No ML library is available offline, so the
forest is implemented here: bagged CART regression trees over the
unit-encoded configuration vectors; the ensemble spread provides the
uncertainty estimate for an expected-improvement acquisition, exactly
like SMAC-style tuners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.search.base import SurrogateSearch, expected_improvement, register_search
from repro.core.space import ParameterSpace

__all__ = ["RegressionTree", "RandomForestRegressor", "RandomForestSearch"]


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None


class RegressionTree:
    """A CART regression tree with variance-reduction splits."""

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 2, max_features: Optional[int] = None):
        if max_depth < 1 or min_samples_leaf < 1:
            raise ValueError("max_depth and min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._root: Optional[_TreeNode] = None

    def fit(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "RegressionTree":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(x) != len(y) or len(x) == 0:
            raise ValueError("x and y must be non-empty and the same length")
        self._root = self._build(x, y, depth=0, rng=rng)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> _TreeNode:
        node = _TreeNode(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf or np.all(y == y[0]):
            return node

        n_features = x.shape[1]
        k = self.max_features or max(1, int(np.ceil(np.sqrt(n_features))))
        features = rng.choice(n_features, size=min(k, n_features), replace=False)

        best_score = np.inf
        best = None
        for feature in features:
            values = np.unique(x[:, feature])
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                mask = x[:, feature] <= threshold
                n_left, n_right = int(mask.sum()), int((~mask).sum())
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                score = n_left * y[mask].var() + n_right * y[~mask].var()
                if score < best_score:
                    best_score = score
                    best = (feature, threshold, mask)
        if best is None:
            return node

        feature, threshold, mask = best
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = self._build(x[mask], y[mask], depth + 1, rng)
        node.right = self._build(x[~mask], y[~mask], depth + 1, rng)
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("the tree has not been fit")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.array([self._predict_one(row) for row in x])

    def _predict_one(self, row: np.ndarray) -> float:
        node = self._root
        while node is not None and not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value if node is not None else 0.0


class RandomForestRegressor:
    """Bagged regression trees with ensemble mean/std prediction."""

    def __init__(
        self,
        n_trees: int = 24,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: Optional[int] = None,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._trees: List[RegressionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "RandomForestRegressor":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        self._trees = []
        n = len(y)
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)  # bootstrap sample
            tree = RegressionTree(self.max_depth, self.min_samples_leaf, self.max_features)
            tree.fit(x[idx], y[idx], rng)
            self._trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> tuple:
        if not self._trees:
            raise RuntimeError("the forest has not been fit")
        preds = np.vstack([tree.predict(x) for tree in self._trees])
        return preds.mean(axis=0), np.maximum(preds.std(axis=0), 1e-9)


@register_search
class RandomForestSearch(SurrogateSearch):
    """SMAC-style search: random-forest surrogate + expected improvement."""

    name = "forest"

    def __init__(
        self,
        space: ParameterSpace,
        seed: int = 0,
        initial_random: int = 10,
        candidates: int = 256,
        n_trees: int = 24,
        exploration: float = 0.01,
    ):
        super().__init__(space, seed)
        if initial_random < 1:
            raise ValueError("initial_random must be >= 1")
        self.initial_random = int(initial_random)
        self.candidates = int(candidates)
        self.exploration = float(exploration)
        self.forest = RandomForestRegressor(n_trees=n_trees)

    # -- surrogate interface ------------------------------------------------------------
    def _fit(self, finite: List) -> np.ndarray:
        objectives = np.array([o for _, o in finite])
        self.forest.fit(
            self.space.encode_many([c for c, _ in finite]), objectives, self.rng
        )
        return objectives

    def _score(self, pool: List[Dict[str, Any]], objectives: np.ndarray) -> np.ndarray:
        """Expected improvement of ``pool`` under the fitted forest."""
        mean, std = self.forest.predict(self.space.encode_many(pool))
        return expected_improvement(float(objectives.min()) - mean - self.exploration, std)

    def tell(self, config: Mapping[str, Any], objective: float) -> None:
        super().tell(config, objective)
