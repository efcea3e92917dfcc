"""Tests for the scheme registry, the update checksum guard, and the
Wu/Kosaian baseline kernels."""

import numpy as np
import pytest

from repro.abft.kosaian import KosaianDetectGemm
from repro.abft.schemes import FTKMEANS, KOSAIAN, NONE, SCHEMES, WU, get_scheme
from repro.abft.sumcheck import checksum_protected, sum_residuals, verify_sums
from repro.abft.wu import WuFtGemm
from repro.core.accumulate import accumulate_checked
from repro.gemm.epilogue import BroadcastArgminEpilogue, StoreEpilogue
from repro.gemm.reference import reference_assignment, reference_distance_matrix
from repro.gemm.shapes import GemmShape
from repro.gemm.verify import assert_allclose_gemm, labels_agree_fraction
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import A100_PCIE_40GB
from repro.gpusim.errors import UncorrectableError
from repro.gpusim.faults import FaultInjector


class TestSchemeRegistry:
    def test_capability_matrix_fig5d(self):
        """The paper's Fig. 5(d) comparison table."""
        assert WU.level == "threadblock" and WU.corrects
        assert not WU.uses_tensor_checksums          # tensor core ✗
        assert KOSAIAN.level == "warp" and KOSAIAN.detects
        assert not KOSAIAN.corrects                  # correction ✗
        assert FTKMEANS.level == "warp"
        assert FTKMEANS.detects and FTKMEANS.corrects
        assert FTKMEANS.uses_tensor_checksums

    def test_async_compatibility(self):
        """Wu's register reuse breaks under cp.async; FT K-means doesn't."""
        assert not WU.async_compatible
        assert FTKMEANS.async_compatible

    def test_checksum_mma_counts(self):
        assert FTKMEANS.checksum_mmas_per_warp_step == 3
        assert KOSAIAN.checksum_mmas_per_warp_step == 1

    def test_lookup(self):
        assert get_scheme("ftkmeans") is FTKMEANS
        assert get_scheme(NONE) is NONE
        with pytest.raises(KeyError):
            get_scheme("unknown")
        assert set(SCHEMES) == {"none", "ftkmeans", "wu", "kosaian",
                                "tensor_only"}


def _stream(seed=0, m=3000, n=5, k=4, dtype=np.float64, mean=2.0):
    """A small labelled stream and its fused (sums, checksums)."""
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((m, n)) + mean).astype(dtype)
    labels = rng.integers(0, k, m)
    return x, labels, k, accumulate_checked(x, labels, k)


class TestChecksumGuard:
    """The update stage's in-pass checksum guard (repro.abft.sumcheck),
    which replaced the generic DMR wrapper."""

    @staticmethod
    def _never():
        raise AssertionError("a clean pass must not re-accumulate")

    def test_clean_pass(self):
        x, labels, k, (sums, checks) = _stream()
        c = PerfCounters()
        out = checksum_protected(sums, checks, self._never, n_rows=len(x),
                                 exact_counts=True, counters=c)
        assert out is sums
        assert c.dmr_checks == 1 and c.dmr_mismatches == 0
        assert c.errors_detected == 0

    def test_detects_and_recovers(self):
        x, labels, k, (sums, checks) = _stream()
        clean = sums.copy()
        c = PerfCounters()

        def corrupt(arr):
            arr[2, 1] = 999.0

        out = checksum_protected(
            sums, checks, lambda: accumulate_checked(x, labels, k),
            n_rows=len(x), exact_counts=True, counters=c,
            corrupt_first=corrupt)
        np.testing.assert_array_equal(out, clean)
        # the hook corrupts a copy: the caller's array stays clean
        np.testing.assert_array_equal(sums, clean)
        assert c.dmr_mismatches == 1
        assert c.errors_detected == 1 and c.errors_injected == 1
        assert c.dmr_checks == 2  # the pass + the recompute

    def test_persistent_error_raises(self):
        x, labels, k, (sums, checks) = _stream()
        calls = {"n": 0}

        def flaky():
            # every recompute is corrupted differently: none verifies
            # and no two agree
            calls["n"] += 1
            bad = sums.copy()
            bad[0, 0] += 1e3 * calls["n"]
            return bad, checks

        bad = sums.copy()
        bad[1, 1] = -1e6
        with pytest.raises(UncorrectableError):
            checksum_protected(bad, checks, flaky, n_rows=len(x),
                               exact_counts=True, max_retries=2)
        assert calls["n"] == 2

    def test_nan_residual_alarms(self):
        x, labels, k, (sums, checks) = _stream()
        bad = sums.copy()
        bad[3, 0] = np.nan
        assert not verify_sums(bad, checks, n_rows=len(x),
                               exact_counts=True)
        c = PerfCounters()
        out = checksum_protected(bad, checks,
                                 lambda: accumulate_checked(x, labels, k),
                                 n_rows=len(x), exact_counts=True,
                                 counters=c)
        np.testing.assert_array_equal(out, sums)
        assert c.errors_detected == 1

    def test_unweighted_counts_must_be_exact(self):
        x, labels, k, (sums, checks) = _stream()
        bad = sums.copy()
        # one sample counted into the wrong cluster: r1 unchanged, the
        # exact count residual r2 moves by one
        bad[0, -1] -= 1.0
        bad[1, -1] += 1.0
        r1, r2 = sum_residuals(bad, checks)
        assert r1[-1] == 0.0 and r2[-1] == 1.0
        assert not verify_sums(bad, checks, n_rows=len(x),
                               exact_counts=True)

    def test_tampered_checksum_recovers(self):
        x, labels, k, (sums, checks) = _stream()
        tampered = checks.copy()
        tampered[2, 1] *= 1.0 + 2.0 ** -20
        c = PerfCounters()
        out = checksum_protected(sums.copy(), tampered,
                                 lambda: accumulate_checked(x, labels, k),
                                 n_rows=len(x), exact_counts=True,
                                 counters=c)
        np.testing.assert_array_equal(out, sums)
        assert c.dmr_mismatches == 1  # the checksum was the corrupted part

    def test_rounding_alarm_settled_by_agreeing_replicas(self):
        """Sums that cancel to rounding noise can alarm fault-free; two
        bit-identical accumulations settle it without a detection."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40_000, 3))
        x -= x.mean(axis=0)
        labels = np.zeros(len(x), dtype=np.int64)
        sums, checks = accumulate_checked(x, labels, 1)
        assert not verify_sums(sums, checks, n_rows=len(x),
                               exact_counts=True)
        c = PerfCounters()
        out = checksum_protected(sums, checks,
                                 lambda: accumulate_checked(x, labels, 1),
                                 n_rows=len(x), exact_counts=True,
                                 counters=c)
        np.testing.assert_array_equal(out, sums)
        assert c.dmr_checks == 2
        assert c.dmr_mismatches == 0 and c.errors_detected == 0


def _setup(x, y, counters, with_distances=False):
    from repro.core.assignment import setup_gmem

    gmem = setup_gmem(x, y, counters)
    if with_distances:
        gmem.alloc("distances", (x.shape[0], y.shape[0]), x.dtype)
    return gmem


class TestWuKernel:
    def test_corrects_injected_faults(self, rng, dtype, small_tile):
        x = rng.standard_normal((128, 48)).astype(dtype)
        y = rng.standard_normal((16, 48)).astype(dtype)
        dref = reference_distance_matrix(x, y)
        for seed in range(6):
            inj = FaultInjector(seed, p_block=1.0, dtype=dtype)
            c = PerfCounters()
            gmem = _setup(x, y, c, with_distances=True)
            kern = WuFtGemm(A100_PCIE_40GB, small_tile, dtype,
                            epilogue=StoreEpilogue(), counters=c, injector=inj)
            kern.run(gmem, GemmShape(128, 16, 48))
            ref, _ = reference_assignment(x, y)
            got = np.argmin(gmem["distances"], axis=1)
            assert labels_agree_fraction(got, ref) == 1.0
            assert c.errors_injected > 0

    def test_register_reuse_hook_called(self, operands, dtype, small_tile):
        x, y = operands
        c = PerfCounters()
        gmem = _setup(x, y, c, with_distances=True)
        kern = WuFtGemm(A100_PCIE_40GB, small_tile, dtype,
                        epilogue=StoreEpilogue(), counters=c)
        kern.run(gmem, GemmShape(x.shape[0], y.shape[0], x.shape[1]))
        assert c.abft_simt_ops > 0       # checksums folded during staging
        assert c.abft_mma_ops == 0       # no tensor-core checksums (Fig. 5d)

    def test_block_level_barriers(self, operands, dtype, small_tile):
        """Wu's verification costs extra block-wide barriers."""
        x, y = operands
        shape = GemmShape(x.shape[0], y.shape[0], x.shape[1])
        c_plain = PerfCounters()
        from repro.gemm.simt_gemm import SimtGemm

        SimtGemm(A100_PCIE_40GB, small_tile, dtype, counters=c_plain,
                 epilogue=StoreEpilogue()).run(
            _setup(x, y, c_plain, True), shape)
        c_wu = PerfCounters()
        WuFtGemm(A100_PCIE_40GB, small_tile, dtype, counters=c_wu,
                 epilogue=StoreEpilogue()).run(_setup(x, y, c_wu, True), shape)
        assert c_wu.barriers > c_plain.barriers


class TestKosaianKernel:
    def test_detects_and_recomputes(self, rng, dtype, small_tile):
        x = rng.standard_normal((128, 48)).astype(dtype)
        y = rng.standard_normal((16, 48)).astype(dtype)
        detected_any = False
        for seed in range(6):
            inj = FaultInjector(seed + 100, p_block=1.0, dtype=dtype)
            c = PerfCounters()
            gmem = _setup(x, y, c)
            kern = KosaianDetectGemm(A100_PCIE_40GB, small_tile, dtype,
                                     epilogue=BroadcastArgminEpilogue(),
                                     counters=c, injector=inj)
            kern.run(gmem, GemmShape(128, 16, 48))
            ref, _ = reference_assignment(x, y, tf32=(dtype == np.float32))
            got = gmem["assign"][:, 1].astype(np.int64)
            assert labels_agree_fraction(got, ref) == 1.0
            if c.errors_detected:
                detected_any = True
                assert kern.recomputed_blocks  # recovery is recomputation
                assert c.errors_corrected == 0  # never corrects in place
        assert detected_any

    def test_one_checksum_mma_per_warp_step(self, operands, small_tile):
        x, y = operands
        c = PerfCounters()
        gmem = _setup(x, y, c)
        kern = KosaianDetectGemm(A100_PCIE_40GB, small_tile, np.float32,
                                 counters=c)
        kern.run(gmem, GemmShape(x.shape[0], y.shape[0], x.shape[1]))
        from repro.utils.arrays import ceil_div

        blocks = ceil_div(x.shape[0], 64) * ceil_div(y.shape[0], 32)
        steps = blocks * ceil_div(x.shape[1], 16) * small_tile.warps_per_block
        assert c.abft_mma_ops == steps
