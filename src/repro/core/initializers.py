"""Centroid initialisation: uniform-random and k-means++.

Initialisation runs on the host in the paper's system, so these are
plain NumPy.  Random init is O(K·N).  k-means++ is not cheap: each of
its K centres builds an (M, N) float64 temporary to update the running
distances, so it costs O(M·N·K) — as much as one Lloyd iteration, and
more memory traffic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["init_random", "init_kmeans_plusplus", "initialize"]


def init_random(x: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """K distinct samples chosen uniformly at random."""
    m = x.shape[0]
    if n_clusters > m:
        raise ValueError(f"n_clusters={n_clusters} exceeds n_samples={m}")
    idx = rng.choice(m, size=n_clusters, replace=False)
    return np.array(x[idx], copy=True)


def init_kmeans_plusplus(x: np.ndarray, n_clusters: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Arthur & Vassilvitskii seeding: D² sampling.

    Vectorised: maintains the running minimum squared distance to the
    chosen set and samples the next centroid proportional to it.
    """
    m = x.shape[0]
    if n_clusters > m:
        raise ValueError(f"n_clusters={n_clusters} exceeds n_samples={m}")
    x64 = x.astype(np.float64)
    centers = np.empty((n_clusters, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(m))
    centers[0] = x64[first]
    d2 = np.sum((x64 - centers[0]) ** 2, axis=1)
    for i in range(1, n_clusters):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass at distance zero (duplicate points):
            # fall back to uniform choice among the rest
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[i] = x64[idx]
        np.minimum(d2, np.sum((x64 - centers[i]) ** 2, axis=1), out=d2)
    return centers.astype(x.dtype)


def initialize(x: np.ndarray, n_clusters: int, method: str,
               rng: np.random.Generator) -> np.ndarray:
    """Dispatch on the configured init method."""
    if method == "random":
        return init_random(x, n_clusters, rng)
    if method == "k-means++":
        return init_kmeans_plusplus(x, n_clusters, rng)
    raise ValueError(f"unknown init method {method!r}")
