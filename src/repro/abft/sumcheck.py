"""Checksum protection for the centroid-update accumulation.

The update stage scatters every sample into its cluster's running sums
``S`` (``(K, N+1)``: feature sums ‖ counts).  The paper protects that
memory-bound stage with DMR (Sec. I); this module protects it with the
Sec. IV encodings instead, so no second pass over the samples is needed.
While the accumulator sums the staged rows it also forms, off the same
rows, the per-column checksums (:meth:`repro.core.accumulate.
StreamedAccumulator.checksums`)::

    c1_j = Σ_i w_i·x_ij            = e1ᵀ S[:, j]
    c2_j = Σ_i (l_i+1)·w_i·x_ij    = e2ᵀ S[:, j]

A corruption ε of one entry ``S[k, j]`` leaves the residuals
``r1_j = e1ᵀS − c1 = ε`` and ``r2_j = e2ᵀS − c2 = (k+1)·ε``; a sample
scattered into the wrong bin moves ``r2`` alone.

Fault-free, the residuals are rounding noise: ``S`` sums each cluster
sequentially, the checksums sum dot products, so the two round
differently, and the noise of a sequential float64 sum grows like the
square root of its length ``n`` — the largest cluster's row count (all
``M`` rows for a weighted stream, whose count column holds weights).
The threshold is :mod:`repro.abft.thresholds`' policy in the float64
arithmetic of the accumulation, with that growth in the scale::

    δ1_j = ThresholdPolicy(float64).delta(√n · Σ_k |S_kj|)
    δ2_j = ThresholdPolicy(float64).delta(√n · Σ_k (k+1)·|S_kj|)

i.e. ``8·u·√n·scale`` with ``u = 2⁻⁵²``.  Measured fault-free ``|r|/δ``
stays below 0.05 for f32 and f64 data, K = 1…256, M up to 10⁶, balanced
or 50%-skewed clusters, and below 0.25 for zero-mean float64 features
in a single cluster, whose sum cancels.  Unweighted counts are
integers, so their two residuals must be exactly zero.  Any corruption
with ``|ε| > 2·δ1_j`` is detected (the noise sits below ``δ1_j``), and so
is every non-finite one.

The scale is ``|S|``, so a column whose sums cancel (a feature that
averages to zero in every cluster) can alarm on rounding alone.  The
guard therefore never raises on an alarm by itself: it re-accumulates
with a fresh accumulator and accepts a replica whose own checksums
verify, or two replicas that agree bit for bit (the DMR verdict, paid
only on alarm).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.abft.encoding import e2
from repro.abft.thresholds import ThresholdPolicy
from repro.gpusim.counters import PerfCounters
from repro.gpusim.errors import UncorrectableError

__all__ = ["sum_residuals", "sum_thresholds", "verify_sums",
           "checksum_protected"]

#: the accumulation runs in float64 whatever the sample dtype
_POLICY = ThresholdPolicy(np.float64)


def sum_residuals(sums: np.ndarray, checks: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(r1, r2)``, each ``(N+1,)``: the e1/e2 encodings of ``sums``
    (``(K, N+1)``) minus the stream's checksums (``(N+1, 2)``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = sums.sum(axis=0) - checks[:, 0]
        r2 = e2(sums.shape[0]) @ sums - checks[:, 1]
    return r1, r2


def sum_thresholds(sums: np.ndarray, n_rows: int, *, exact_counts: bool
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(δ1, δ2)``, each ``(N+1,)``: the per-column detection
    thresholds of :func:`sum_residuals` for sums over ``n_rows`` rows.

    The growth factor is the square root of the longest sequential sum:
    the largest cluster's row count when the count column holds row
    counts (``exact_counts``, capped at ``n_rows``), else ``n_rows``."""
    with np.errstate(over="ignore", invalid="ignore"):
        longest = n_rows
        if exact_counts:
            longest = min(n_rows, float(np.max(sums[:, -1])))
        growth = np.sqrt(max(1.0, longest))
        mag = np.abs(sums)
        # ThresholdPolicy.delta, vectorised over the columns
        return tuple(_POLICY.safety * _POLICY.u
                     * np.maximum(growth * scale, 1e-30)
                     for scale in (mag.sum(axis=0),
                                   e2(sums.shape[0]) @ mag))


def verify_sums(sums: np.ndarray, checks: np.ndarray, *, n_rows: int,
                exact_counts: bool) -> bool:
    """True when ``sums`` (over ``n_rows`` rows) agrees with ``checks``
    within the thresholds.

    ``exact_counts`` (unweighted streams) demands the count column's
    residuals be exactly zero.  Non-finite residuals always alarm."""
    r1, r2 = sum_residuals(sums, checks)
    d1, d2 = sum_thresholds(sums, n_rows, exact_counts=exact_counts)
    # "|r| <= δ" is False for NaN: a non-finite residual alarms
    ok = bool(np.all(np.abs(r1) <= d1) and np.all(np.abs(r2) <= d2))
    if ok and exact_counts:
        ok = r1[-1] == 0.0 and r2[-1] == 0.0
    return ok


def checksum_protected(sums: np.ndarray, checks: np.ndarray,
                       recompute: Callable[[], tuple[np.ndarray, np.ndarray]],
                       *, n_rows: int, exact_counts: bool,
                       counters: PerfCounters | None = None,
                       corrupt_first: Callable[[np.ndarray], None] | None = None,
                       max_retries: int = 3) -> np.ndarray:
    """Verify one pass's sums against its checksums; recover on alarm.

    Parameters
    ----------
    sums, checks:
        The pass's packed ``(K, N+1)`` sums and ``(N+1, 2)`` checksums.
    recompute:
        Re-accumulates the same stream with a fresh accumulator and
        returns its ``(sums, checks)``; called only after an alarm.
    n_rows:
        Rows the pass accumulated (bounds the thresholds' growth).
    exact_counts:
        The count column holds integers (unweighted stream).
    counters:
        ``dmr_checks`` counts verifications; ``dmr_mismatches`` and
        ``errors_detected`` count passes whose sums or checksums were
        found corrupted.
    corrupt_first:
        Test hook: mutates a copy of ``sums`` before the first check,
        modelling an SEU in the accumulation.
    max_retries:
        Recomputation budget before declaring the error persistent.

    Returns
    -------
    ndarray
        Verified sums: ``sums`` itself when it checks out (uncorrupted),
        else the accepted recomputation.
    """
    counters = counters if counters is not None else PerfCounters()
    if corrupt_first is not None:
        # corrupt a copy: the caller's array stays the clean pass
        sums = sums.copy()
        corrupt_first(sums)
        counters.errors_injected += 1
    counters.dmr_checks += 1
    if verify_sums(sums, checks, n_rows=n_rows,
                   exact_counts=exact_counts):
        return sums
    replicas = [(sums, checks)]
    for _ in range(max_retries):
        fresh = recompute()
        counters.dmr_checks += 1
        verified = verify_sums(*fresh, n_rows=n_rows,
                               exact_counts=exact_counts)
        # two independent passes that agree bit for bit settle a
        # rounding alarm (the sums cancel below the noise)
        twin = next((r for r in replicas if _same(r, fresh)), None)
        if verified or twin is not None:
            if twin is not replicas[0]:
                counters.dmr_mismatches += 1
                counters.errors_detected += 1
            return fresh[0]
        replicas.append(fresh)
    counters.dmr_mismatches += 1
    counters.errors_detected += 1
    raise UncorrectableError(
        f"update checksums failed across {max_retries + 1} accumulations")


def _same(a: tuple[np.ndarray, np.ndarray],
          b: tuple[np.ndarray, np.ndarray]) -> bool:
    """Bitwise equality of two ``(sums, checks)`` replicas."""
    return all(np.array_equal(np.ascontiguousarray(p).view(np.uint64),
                              np.ascontiguousarray(q).view(np.uint64))
               for p, q in zip(a, b))
