"""Centroid initialisation: uniform-random and k-means++.

Initialisation runs on the host in the paper's system, so these are
plain NumPy.  Random init is O(K·N).  k-means++ is O(M·N·K) — as much
arithmetic as one Lloyd iteration — but in GEMM form: each of its K
draws is one O(M·N) mat-vec over a float64 copy of ``x`` hoisted once
per call, plus a few O(M) vector passes.  No draw builds an (M, N)
temporary (only rows that coincide with the drawn centre, to rounding,
are recomputed directly), so the peak beyond the float64 copy is a
handful of M-length vectors.
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

    Maintains the running minimum squared distance ``d2`` to the chosen
    set and draws the next centre with probability proportional to it.
    The float64 view of ``x`` (no copy for float64 input) and the row
    norms ``xx`` are hoisted; each draw then costs one mat-vec,
    ``d = xx - 2 x·c + c·c``, and O(M) vector passes.

    The expanded form cancels where a row sits close to ``c``.  Rows
    whose expanded value is within its rounding-error bound are
    recomputed in direct form, ``sum((x_i - c)²)``, so the chosen row
    and its duplicates get exactly 0 (never a stray mass, and all-equal
    input still reaches the uniform fallback) and no value is negative.

    Sampling is ``Generator.choice(m, p=d2 / d2.sum())``'s own rule,
    written out: a normalised cumsum CDF, one ``rng.random()`` per draw
    and ``searchsorted(side='right')``.  The generator consumes the
    same draws as with ``choice``, so the state handed on to later
    users of ``rng`` is unchanged.
    """
    m, n = x.shape
    if n_clusters > m:
        raise ValueError(f"n_clusters={n_clusters} exceeds n_samples={m}")
    x64 = np.asarray(x, dtype=np.float64)
    xx = np.einsum("ij,ij->i", x64, x64)
    # |fl(d) - d| <= slack * (xx + c·c): three length-n dot products
    # and two additions, each within n+2 roundings of its operands
    slack = 4.0 * (n + 2) * np.finfo(np.float64).eps
    xx_slack = slack * xx
    cdf = np.empty(m, dtype=np.float64)
    picks = []
    idx = int(rng.integers(m))
    for i in range(n_clusters):
        if i:
            total = float(d2.sum())
            if total <= 0.0:
                # all remaining mass at distance zero (duplicate points):
                # fall back to uniform choice among the rest
                idx = int(rng.integers(m))
            else:
                np.divide(d2, total, out=cdf)
                np.cumsum(cdf, out=cdf)
                cdf /= cdf[-1]
                idx = int(cdf.searchsorted(rng.random(), side="right"))
        picks.append(idx)
        c = x64[idx]
        cc = xx[idx]
        # -2 is a power of two, so x·(-2c) is exactly -2(x·c)
        d = x64 @ (-2.0 * c)
        d += xx
        d += cc
        near = np.flatnonzero(d <= xx_slack + slack * cc)
        d[near] = np.sum((x64[near] - c) ** 2, axis=1)
        if i:
            np.minimum(d2, d, out=d2)
        else:
            d2 = d
    return x[picks]


def initialize(x: np.ndarray, n_clusters: int, method: str,
               rng: np.random.Generator) -> np.ndarray:
    """Dispatch on the configured init method."""
    if method == "random":
        return init_random(x, n_clusters, rng)
    if method == "k-means++":
        return init_kmeans_plusplus(x, n_clusters, rng)
    raise ValueError(f"unknown init method {method!r}")
