"""Input validation shared by the estimator and the kernel drivers."""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import check_2d

__all__ = ["all_finite", "validate_data", "validate_centroids",
           "validate_weights"]

#: elements per band of :func:`all_finite` (a 64 KiB mask)
FINITE_BAND = 1 << 16


def all_finite(a: np.ndarray) -> bool:
    """``np.all(np.isfinite(a))`` without an ``a``-sized boolean mask.

    The check runs band by band through one small reused mask.  Every
    ``fit`` and ``predict`` validates its input, and a full-size mask
    (12.8 MB at 200k x 64) freed right away was one of the two multi-MB
    heap transients (the other the chunk tile, see
    :class:`repro.core.engine._TileReserve`) whose holes made the peak
    resident set of identical runs differ.  Contiguous input is checked
    in place.
    """
    flat = a.reshape(-1)
    mask = np.empty(min(flat.size, FINITE_BAND), dtype=bool)
    for lo in range(0, flat.size, FINITE_BAND):
        band = flat[lo:lo + FINITE_BAND]
        ok = mask[:band.size]
        np.isfinite(band, out=ok)
        if not ok.all():
            return False
    return True


def validate_data(x, dtype) -> np.ndarray:
    """Return samples as a C-contiguous finite 2-D array of ``dtype``."""
    x = check_2d(np.asarray(x), "X")
    x = np.ascontiguousarray(x, dtype=dtype)
    if not all_finite(x):
        raise ValueError("X contains NaN or Inf")
    return x


def validate_weights(sample_weight, n_samples: int) -> np.ndarray | None:
    """Validate per-sample weights: finite, non-negative, shape (M,).

    Returns a C-contiguous float64 vector, or None when no weights were
    given (the unweighted fast paths stay untouched).
    """
    if sample_weight is None:
        return None
    w = np.ascontiguousarray(np.asarray(sample_weight), dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != n_samples:
        raise ValueError(
            f"sample_weight shape {np.shape(sample_weight)} != ({n_samples},)")
    if not all_finite(w):
        raise ValueError("sample_weight contains NaN or Inf")
    if np.any(w < 0):
        raise ValueError("sample_weight contains negative weights")
    return w


def validate_centroids(y, n_clusters: int, n_features: int, dtype) -> np.ndarray:
    """Validate a user-supplied initial centroid matrix."""
    y = check_2d(np.asarray(y), "initial centroids")
    if y.shape != (n_clusters, n_features):
        raise ValueError(
            f"initial centroids shape {y.shape} != ({n_clusters}, {n_features})")
    y = np.ascontiguousarray(y, dtype=dtype)
    if not all_finite(y):
        raise ValueError("initial centroids contain NaN or Inf")
    return y
