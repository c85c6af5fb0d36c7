"""K-means clustering with entropy-based model selection (section 3.6).

BINGO! "can perform a cluster analysis on the results of one class and
suggest creating new subclasses with tentative labels automatically drawn
from the most characteristic terms of these subclasses", choosing the
number of clusters "such that an entropy-based cluster impurity measure
is minimized".

We implement spherical K-means (cosine distance over unit-normalised
tf*idf vectors) on a dense matrix restricted to the most frequent
features, plus:

* :func:`cluster_impurity` -- size-weighted entropy of the per-cluster
  mean term distributions (lower = crisper clusters), normalised by the
  log of the feature count so values are comparable across k;
* :func:`choose_cluster_count` -- scans a k range and returns the
  impurity-minimising clustering;
* cluster labels -- the top-weighted centroid features.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.text.vectorizer import SparseVector

__all__ = ["ClusterModel", "KMeans", "cluster_impurity", "choose_cluster_count"]

RESTARTS = 4


@dataclass
class ClusterModel:
    """A fitted clustering: assignments, centroids, labels, impurity."""

    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    features: list[str]
    impurity: float

    def members(self, cluster: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.assignments == cluster)]

    def label(self, cluster: int, terms: int = 3) -> str:
        """Tentative subclass label: the most *distinctive* centroid terms.

        Features are scored by how much the cluster's centroid exceeds
        the mean of the other centroids, so labels describe what sets a
        cluster apart rather than the corpus-wide head terms.
        """
        centroid = self.centroids[cluster]
        if self.k > 1:
            others = np.delete(self.centroids, cluster, axis=0).mean(axis=0)
            contrast = centroid - others
        else:
            contrast = centroid
        top = np.argsort(-contrast)[:terms]
        words = [self.features[i] for i in top if centroid[i] > 0]
        return " ".join(words) if words else f"cluster-{cluster}"

    def sizes(self) -> list[int]:
        return [int((self.assignments == c).sum()) for c in range(self.k)]


def _densify(
    vectors: Sequence[SparseVector], max_features: int
) -> tuple[np.ndarray, list[str]]:
    """Project onto the ``max_features`` most frequent features, unit rows."""
    frequency: Counter = Counter()
    for vector in vectors:
        for feature, _ in vector:
            frequency[feature] += 1
    features = [f for f, _ in frequency.most_common(max_features)]
    index = {f: i for i, f in enumerate(features)}
    matrix = np.zeros((len(vectors), max(len(features), 1)))
    for row, vector in enumerate(vectors):
        for feature, weight in vector:
            column = index.get(feature)
            if column is not None:
                matrix[row, column] = weight
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms, features


def cluster_impurity(matrix: np.ndarray, assignments: np.ndarray, k: int) -> float:
    """Size-weighted normalised entropy of cluster term distributions."""
    n, m = matrix.shape
    if n == 0 or m <= 1:
        return 0.0
    total = 0.0
    log_m = np.log(m)
    for cluster in range(k):
        members = matrix[assignments == cluster]
        if len(members) == 0:
            continue
        mass = members.sum(axis=0)
        mass_sum = mass.sum()
        if mass_sum <= 0:
            continue
        p = mass / mass_sum
        nonzero = p[p > 0]
        entropy = float(-(nonzero * np.log(nonzero)).sum()) / log_m
        total += (len(members) / n) * entropy
    return total


class KMeans:
    """Spherical K-means over sparse documents."""

    def __init__(
        self,
        k: int,
        max_iterations: int = 50,
        seed: int = 0,
        max_features: int = 500,
    ) -> None:
        if k < 1:
            raise TrainingError(f"k must be >= 1, got {k}")
        self.k = k
        self.max_iterations = max_iterations
        self.seed = seed
        self.max_features = max_features

    def fit(self, vectors: Sequence[SparseVector]) -> ClusterModel:
        """Run ``RESTARTS`` seeded attempts and keep the best-cohesion one."""
        if len(vectors) < self.k:
            raise TrainingError(
                f"cannot build {self.k} clusters from {len(vectors)} documents"
            )
        matrix, features = _densify(vectors, self.max_features)
        best: tuple[float, np.ndarray, np.ndarray] | None = None
        for restart in range(RESTARTS):
            rng = np.random.default_rng(self.seed + restart * 7919)
            assignments, centroids = self._fit_once(matrix, rng)
            cohesion = float(
                (matrix * centroids[assignments]).sum()
            )  # sum of cosine similarities to own centroid
            if best is None or cohesion > best[0]:
                best = (cohesion, assignments, centroids)
        assert best is not None
        _, assignments, centroids = best
        impurity = cluster_impurity(matrix, assignments, self.k)
        return ClusterModel(
            k=self.k, assignments=assignments, centroids=centroids,
            features=features, impurity=impurity,
        )

    def _fit_once(
        self, matrix: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(matrix)
        # k-means++-style seeding on cosine distance
        centroids = np.empty((self.k, matrix.shape[1]))
        first = int(rng.integers(n))
        centroids[0] = matrix[first]
        for c in range(1, self.k):
            similarity = matrix @ centroids[:c].T
            distance = 1.0 - similarity.max(axis=1)
            distance = np.maximum(distance, 0.0)
            if distance.sum() <= 0:
                centroids[c] = matrix[int(rng.integers(n))]
                continue
            probabilities = distance / distance.sum()
            centroids[c] = matrix[int(rng.choice(n, p=probabilities))]

        assignments = np.zeros(n, dtype=int)
        for _iteration in range(self.max_iterations):
            similarity = matrix @ centroids.T
            new_assignments = np.argmax(similarity, axis=1)
            if np.array_equal(new_assignments, assignments) and _iteration > 0:
                break
            assignments = new_assignments
            for cluster in range(self.k):
                members = matrix[assignments == cluster]
                if len(members) == 0:
                    centroids[cluster] = matrix[int(rng.integers(n))]
                    continue
                mean = members.mean(axis=0)
                norm = np.linalg.norm(mean)
                centroids[cluster] = mean / norm if norm > 0 else mean
        return assignments, centroids


def choose_cluster_count(
    vectors: Sequence[SparseVector],
    k_range: Sequence[int] = (2, 3, 4, 5, 6),
    seed: int = 0,
    max_features: int = 500,
) -> ClusterModel:
    """Fit K-means for each k and return the impurity-minimising model."""
    candidates = [k for k in k_range if 1 <= k <= len(vectors)]
    if not candidates:
        raise TrainingError("no feasible k in the requested range")
    best: ClusterModel | None = None
    for k in candidates:
        model = KMeans(
            k, seed=seed, max_features=max_features
        ).fit(vectors)
        if best is None or model.impurity < best.impurity:
            best = model
    assert best is not None
    return best
