"""Correctness checks of one timed repeat, and the NumPy oracles behind them.

Every check returns a list of failure messages; an empty list passes.
A repeat that raises or fails any check counts as failed in the
benchmark's result line.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["INERTIA_REL_TOL", "digest", "check_repeat", "check_predict",
           "check_identical", "check_ft", "check_oracle", "numpy_lloyd",
           "nearest_f64"]

#: largest relative inertia error an injected fit may show against its
#: fault-free twin (escaped SEUs are sub-threshold by construction)
INERTIA_REL_TOL = 1e-3
#: relative distance gap under which a predict label may differ from
#: the float64 argmin (TF32 operands carry 10 mantissa bits)
TIE_RTOL = {np.dtype(np.float32): 2.0 ** -8, np.dtype(np.float64): 1e-9}
#: share of predict labels allowed to sit on such near-ties (with a
#: floor of MIN_TIES rows, for small inputs)
MAX_TIE_FRAC = 1e-3
MIN_TIES = 16
#: label agreement and inertia match required against the NumPy Lloyd
ORACLE_MAX_LABEL_DIFF = 1e-4
ORACLE_INERTIA_RTOL = 1e-9

_BLOCK = 16_384


def digest(labels, centroids, inertia, predicted) -> str:
    """SHA-256 over a fit's outputs and one predict's labels."""
    h = hashlib.sha256()
    for arr in (labels, centroids, predicted):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    h.update(np.float64(inertia).tobytes())
    return h.hexdigest()


def check_repeat(first: str, this: str) -> list[str]:
    """Fits of identical inputs must produce identical bits."""
    return [] if this == first else [
        f"digest {this[:12]} differs from the run's first {first[:12]}"]


def _sqdist_block(xb: np.ndarray, c64: np.ndarray, cc: np.ndarray):
    x64 = xb.astype(np.float64)
    d = np.sum(x64 * x64, axis=1)[:, None] - 2.0 * (x64 @ c64.T) + cc[None, :]
    return np.maximum(d, 0.0), np.sum(x64 * x64, axis=1)


def nearest_f64(x: np.ndarray, centroids: np.ndarray):
    """Float64 argmin labels and squared distances, in row blocks."""
    c64 = centroids.astype(np.float64)
    cc = np.sum(c64 * c64, axis=1)
    labels = np.empty(x.shape[0], dtype=np.int64)
    best = np.empty(x.shape[0], dtype=np.float64)
    for lo in range(0, x.shape[0], _BLOCK):
        d, _ = _sqdist_block(x[lo:lo + _BLOCK], c64, cc)
        labels[lo:lo + _BLOCK] = np.argmin(d, axis=1)
        best[lo:lo + _BLOCK] = np.min(d, axis=1)
    return labels, best


def check_predict(x: np.ndarray, centroids: np.ndarray,
                  predicted: np.ndarray) -> list[str]:
    """``predict`` agrees with a float64 argmin except at near-ties.

    A differing label passes only when its float64 distance exceeds the
    argmin's by at most ``TIE_RTOL`` of the norm scale, and no more than
    ``MAX_TIE_FRAC`` of the rows (at least ``MIN_TIES``) may differ.
    """
    predicted = np.asarray(predicted)
    if predicted.shape != (x.shape[0],):
        return [f"predict returned shape {predicted.shape}"]
    if predicted.min(initial=0) < 0 or predicted.max(
            initial=0) >= centroids.shape[0]:
        return ["predict returned an out-of-range label"]
    rtol = TIE_RTOL[np.dtype(x.dtype)]
    c64 = centroids.astype(np.float64)
    cc = np.sum(c64 * c64, axis=1)
    far = ties = 0
    for lo in range(0, x.shape[0], _BLOCK):
        d, xx = _sqdist_block(x[lo:lo + _BLOCK], c64, cc)
        got = predicted[lo:lo + _BLOCK]
        rows = np.arange(got.shape[0])
        oracle = np.argmin(d, axis=1)
        diff = np.flatnonzero(got != oracle)
        gap = d[rows[diff], got[diff]] - d[rows[diff], oracle[diff]]
        scale = xx[diff] + cc[got[diff]]
        far += int(np.count_nonzero(gap > rtol * scale))
        ties += diff.size
    out = []
    if far:
        out.append(f"{far} predict labels are not the nearest centroid")
    if ties > max(MIN_TIES, MAX_TIE_FRAC * x.shape[0]):
        out.append(f"{ties} predict labels differ from the f64 argmin")
    return out


def check_identical(got: dict, ref: dict) -> list[str]:
    """Labels, centroids and inertia bit-identical to the reference."""
    out = []
    for key in ("labels", "centroids", "predicted"):
        a, b = np.asarray(got[key]), np.asarray(ref[key])
        if a.dtype != b.dtype or a.shape != b.shape or \
                a.tobytes() != b.tobytes():
            out.append(f"{key} differ from the single-worker fit")
    if np.float64(got["inertia"]).tobytes() != \
            np.float64(ref["inertia"]).tobytes():
        out.append(f"inertia {got['inertia']!r} != {ref['inertia']!r}")
    return out


def inertia_rel_err(inertia: float, ref_inertia: float) -> float:
    return abs(inertia - ref_inertia) / abs(ref_inertia)


def check_ft(counters, inertia: float, clean_inertia: float) -> list[str]:
    """Every detected SEU corrected; inertia within the fault-free bound."""
    out = []
    if counters.errors_detected != counters.errors_corrected:
        out.append(f"detected {counters.errors_detected} != corrected "
                   f"{counters.errors_corrected}")
    err = inertia_rel_err(inertia, clean_inertia)
    if not err <= INERTIA_REL_TOL:
        out.append(f"inertia_rel_err {err:.3g} > {INERTIA_REL_TOL}")
    return out


def check_oracle(labels: np.ndarray, inertia: float,
                 base: dict) -> list[str]:
    """A fixpoint fit matches the NumPy float64 Lloyd from the same start."""
    out = []
    frac = float(np.mean(np.asarray(labels) != base["labels"]))
    if frac > ORACLE_MAX_LABEL_DIFF:
        out.append(f"{frac:.3g} of labels differ from the NumPy Lloyd")
    err = inertia_rel_err(inertia, base["inertia"])
    if not err <= ORACLE_INERTIA_RTOL:
        out.append(f"inertia differs from the NumPy Lloyd by {err:.3g}")
    return out


def numpy_lloyd(x: np.ndarray, c0: np.ndarray, max_iter: int) -> dict:
    """Plain float64 Lloyd with the estimator's ``tol=0`` stopping rule
    (stop when the centroids stop moving or inertia stops falling)."""
    x64 = np.asarray(x, dtype=np.float64)
    c = np.array(c0, dtype=np.float64)
    k = c.shape[0]
    prev = None
    labels = best = None
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        labels, best = nearest_f64(x64, c)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = np.zeros_like(c)
        for lo in range(0, x64.shape[0], _BLOCK):
            lab = labels[lo:lo + _BLOCK]
            onehot = np.zeros((lab.size, k))
            onehot[np.arange(lab.size), lab] = 1.0
            sums += onehot.T @ x64[lo:lo + _BLOCK]
        new = c.copy()
        nz = counts > 0
        new[nz] = sums[nz] / counts[nz, None]
        inertia = float(best.sum())
        moved = not np.array_equal(new, c)
        c = new
        if not moved or (prev is not None and prev - inertia <= 0.0):
            break
        prev = inertia
    return {"centroids": c, "labels": labels, "inertia": float(best.sum()),
            "n_iter": n_iter}
