"""The update stage's in-pass checksum guard, end to end.

Contracts under test:

* every single-bit flip of a sums or counts entry whose magnitude
  exceeds the stated bound (``2·δ1`` of :mod:`repro.abft.sumcheck`, or
  non-finite) is detected, and the guard's recovery is bit-equal to the
  one-shot ``np.add.at`` accumulation;
* fault-free fits never alarm: one verification per iteration, for
  every variant and dtype and for the benchmark workloads at 1/8 rows;
* a ``corrupt_hook`` SEU is detected and recovered with clean bits on
  the weighted path, in ``partial_fit`` and on a 2-worker fleet;
* a tampered checksum either recovers or raises ``UncorrectableError``;
* the update reads the samples once: a fault-free fast fit feeds
  exactly ``n_iter x M`` rows into accumulators.
"""

import numpy as np
import pytest

from perfbench.workloads import WORKLOADS, make_inputs
from repro import FTKMeans
from repro.abft.sumcheck import checksum_protected, sum_thresholds, verify_sums
from repro.core.accumulate import (
    StreamedAccumulator,
    accumulate_checked,
    accumulate_oneshot,
)
from repro.core.config import VARIANT_NAMES
from repro.core.update import UpdateStage
from repro.gpusim.counters import PerfCounters
from repro.gpusim.errors import UncorrectableError


def _flip(value: float, bit: int) -> float:
    a = np.array([value], dtype=np.float64)
    a.view(np.uint64)[0] ^= np.uint64(1) << np.uint64(bit)
    return float(a[0])


def _arm(monkeypatch, hook):
    """Give every UpdateStage built from now on ``hook`` (one-shot)."""
    init = UpdateStage.__init__

    def armed(stage, *args, **kw):
        init(stage, *args, **kw)
        stage.corrupt_hook = hook

    monkeypatch.setattr(UpdateStage, "__init__", armed)


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.uint8),
                          np.asarray(b).view(np.uint8))


def _corrupt(arr):
    arr[1, 2] += 1e3 * max(1.0, abs(arr[1, 2]))


class TestBitFlipSweep:
    """Every flip above the bound is caught; recovery is bit-exact."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_flip_above_the_bound_is_detected(self, dtype, weighted):
        rng = np.random.default_rng(5)
        m, n, k = 6000, 6, 5
        centres = 2.0 * rng.standard_normal((k, n))
        labels = rng.integers(0, k, m)
        x = (centres[labels] + rng.standard_normal((m, n))).astype(dtype)
        w = rng.uniform(0.5, 2.0, m) if weighted else None
        sums, checks = accumulate_checked(x, labels, k, sample_weight=w)
        d1, _ = sum_thresholds(sums, m, exact_counts=not weighted)
        assert verify_sums(sums, checks, n_rows=m, exact_counts=not weighted)
        above = missed = 0
        for (i, j), value in np.ndenumerate(sums):
            for bit in range(64):
                bad = sums.copy()
                bad[i, j] = _flip(value, bit)
                eps = bad[i, j] - value
                caught = not verify_sums(bad, checks, n_rows=m,
                                         exact_counts=not weighted)
                if not np.isfinite(eps) or abs(eps) > 2.0 * d1[j]:
                    above += 1
                    missed += not caught
        assert above > 0.5 * sums.size * 64
        assert missed == 0

    @pytest.mark.parametrize("bit", [20, 30, 45, 52, 61, 62, 63])
    def test_recovery_is_bit_equal_to_oneshot(self, bit):
        rng = np.random.default_rng(bit)
        x = (rng.standard_normal((4000, 7)) + 1.0).astype(np.float32)
        labels = rng.integers(0, 6, 4000)
        sums, checks = accumulate_checked(x, labels, 6)
        c = PerfCounters()

        def flip(arr):
            arr[3, 4] = _flip(arr[3, 4], bit)

        out = checksum_protected(
            sums, checks, lambda: accumulate_checked(x, labels, 6),
            n_rows=len(x), exact_counts=True, counters=c,
            corrupt_first=flip)
        assert c.errors_detected == 1 and c.dmr_mismatches == 1
        assert _same_bits(out, accumulate_oneshot(x, labels, 6))

    def test_counts_flip_recovers(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3000, 4)).astype(np.float32)
        labels = rng.integers(0, 5, 3000)
        sums, checks = accumulate_checked(x, labels, 5)
        c = PerfCounters()

        def flip(arr):
            arr[2, -1] = _flip(arr[2, -1], 40)

        out = checksum_protected(
            sums, checks, lambda: accumulate_checked(x, labels, 5),
            n_rows=len(x), exact_counts=True, counters=c,
            corrupt_first=flip)
        assert c.errors_detected == 1
        assert _same_bits(out, accumulate_oneshot(x, labels, 5))


class TestNoFalseAlarms:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_fault_free_fit_checks_once_per_iteration(self, variant, dtype):
        rng = np.random.default_rng(3)
        centres = 3.0 * rng.standard_normal((8, 12))
        x = (centres[rng.integers(0, 8, 3000)]
             + rng.standard_normal((3000, 12))).astype(dtype)
        km = FTKMeans(n_clusters=8, variant=variant, dtype=dtype, seed=0,
                      max_iter=6, tol=0.0).fit(x)
        c = km.counters_
        assert c.dmr_checks == km.n_iter_
        assert c.dmr_mismatches == 0 and c.errors_detected == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_benchmark_workloads_at_one_eighth(self, workload, seed):
        inputs = make_inputs(workload, seed,
                             rows=WORKLOADS[workload].rows // 8)
        km = FTKMeans(**inputs.kwargs).fit(inputs.x)
        c = km.counters_
        # no alarm at all: one verification per update, none repeated
        assert c.dmr_mismatches == 0
        assert c.dmr_checks == km.n_iter_


class TestCorruptHook:
    """An SEU in the fused sums: detected, recovered, clean bits."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(8)
        centres = 2.0 * rng.standard_normal((6, 10))
        x = (centres[rng.integers(0, 6, 2500)]
             + rng.standard_normal((2500, 10))).astype(np.float32)
        return x, rng.uniform(0.2, 3.0, len(x))

    def test_weighted_fit(self, monkeypatch):
        x, w = self._data()
        kw = dict(n_clusters=6, seed=0, max_iter=5, tol=0.0)
        clean = FTKMeans(**kw).fit(x, sample_weight=w)
        _arm(monkeypatch, _corrupt)
        hit = FTKMeans(**kw).fit(x, sample_weight=w)
        assert hit.counters_.dmr_mismatches == 1
        assert hit.counters_.errors_detected == 1
        assert _same_bits(hit.cluster_centers_, clean.cluster_centers_)
        assert np.array_equal(hit.labels_, clean.labels_)

    def test_partial_fit(self, monkeypatch):
        x, _ = self._data()
        batches = [x[lo:lo + 500] for lo in range(0, len(x), 500)]
        clean = FTKMeans(n_clusters=6, seed=0)
        for b in batches:
            clean.partial_fit(b)
        _arm(monkeypatch, _corrupt)
        hit = FTKMeans(n_clusters=6, seed=0)
        for b in batches:
            hit.partial_fit(b)
        assert hit.counters_.dmr_mismatches == 1
        assert hit.fault_trace_[0]["dmr_mismatches"] == 1
        assert _same_bits(hit.cluster_centers_, clean.cluster_centers_)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_two_worker_fleet(self, monkeypatch, executor):
        x, _ = self._data()
        kw = dict(n_clusters=6, seed=0, max_iter=5, tol=0.0, init="random")
        single = FTKMeans(**kw).fit(x)
        _arm(monkeypatch, _corrupt)
        hit = FTKMeans(n_workers=2, executor=executor, **kw).fit(x)
        assert hit.counters_.dmr_mismatches == 1
        assert hit.counters_.errors_detected >= 1
        assert _same_bits(hit.cluster_centers_, single.cluster_centers_)
        assert np.array_equal(hit.labels_, single.labels_)


class TestTamperedChecksum:
    @staticmethod
    def _data():
        rng = np.random.default_rng(4)
        return rng.standard_normal((2000, 8)).astype(np.float32) + 1.0

    def test_one_tampered_pass_recovers(self, monkeypatch):
        x = self._data()
        kw = dict(n_clusters=5, seed=0, max_iter=4, tol=0.0)
        clean = FTKMeans(**kw).fit(x)
        real = StreamedAccumulator.checksums
        calls = {"n": 0}

        def tampered(acc):
            out = real(acc)
            calls["n"] += 1
            if calls["n"] == 2:           # the second iteration's pass
                out[3, 1] *= 1.0 + 2.0 ** -12
            return out

        monkeypatch.setattr(StreamedAccumulator, "checksums", tampered)
        hit = FTKMeans(**kw).fit(x)
        assert hit.counters_.dmr_mismatches == 1
        assert _same_bits(hit.cluster_centers_, clean.cluster_centers_)

    def test_persistently_wrong_checksums_raise(self, monkeypatch):
        x = self._data()
        real = StreamedAccumulator.checksums
        noise = np.random.default_rng(0)

        def tampered(acc):
            # a different wrong checksum every pass: no replica verifies
            # and no two agree
            out = real(acc)
            out[0, 0] += 1e3 * (1.0 + noise.random())
            return out

        monkeypatch.setattr(StreamedAccumulator, "checksums", tampered)
        with pytest.raises(UncorrectableError):
            FTKMeans(n_clusters=5, seed=0, max_iter=3).fit(x)


class TestOnePass:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fast_fit_feeds_each_row_once_per_iteration(self, monkeypatch,
                                                        dtype):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5000, 16)).astype(dtype)
        fed = []
        feed = StreamedAccumulator.feed

        def counting(acc, x_chunk, labels_chunk):
            fed.append(len(x_chunk))
            feed(acc, x_chunk, labels_chunk)

        monkeypatch.setattr(StreamedAccumulator, "feed", counting)
        km = FTKMeans(n_clusters=8, dtype=dtype, seed=0, max_iter=5,
                      tol=0.0).fit(x)
        assert km.counters_.dmr_checks == km.n_iter_
        assert sum(fed) == km.n_iter_ * len(x)
