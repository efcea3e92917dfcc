"""Tests for the tensor-core MMA and SIMT functional units."""

import numpy as np
import pytest

from repro.gpusim.counters import PerfCounters
from repro.gpusim.mma import (
    MMA_FP32_TF32,
    MMA_FP64,
    MmaUnit,
    mma_shape_for,
    round_tf32,
)
from repro.gpusim.simt import SimtUnit


class TestMmaShapes:
    def test_paper_instruction_shapes(self):
        assert (MMA_FP64.m, MMA_FP64.n, MMA_FP64.k) == (8, 8, 4)
        assert (MMA_FP32_TF32.m, MMA_FP32_TF32.n, MMA_FP32_TF32.k) == (16, 8, 8)

    def test_shape_for_dtype(self):
        assert mma_shape_for(np.float32) is MMA_FP32_TF32
        assert mma_shape_for(np.float64) is MMA_FP64
        with pytest.raises(ValueError):
            mma_shape_for(np.int32)

    def test_instruction_count(self):
        # a 64x32 warp tile over a 16-deep fragment on TF32 m16n8k8
        assert MMA_FP32_TF32.instructions_for(64, 32, 16) == 4 * 4 * 2
        # fp64 m8n8k4: 32x32x16 warp tile
        assert MMA_FP64.instructions_for(32, 32, 16) == 4 * 4 * 4


class TestRoundTf32:
    def test_idempotent(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        once = round_tf32(x)
        np.testing.assert_array_equal(round_tf32(once), once)

    def test_relative_error_bound(self, rng):
        x = rng.standard_normal(1000).astype(np.float32) * 100
        err = np.abs(round_tf32(x) - x) / np.abs(x)
        assert err.max() <= 2.0 ** -11  # RNE half-ulp of 10-bit mantissa

    def test_round_to_nearest_not_truncation(self):
        """Truncation would bias toward zero; RNE must round some values up."""
        x = np.float32(1.0) + np.float32(2.0 ** -11) + np.float32(2.0 ** -13)
        assert float(round_tf32(x)) >= float(x)

    def test_unbiased_on_random_data(self, rng):
        x = (rng.standard_normal(200_000) * 10).astype(np.float32)
        bias = float(np.mean(round_tf32(x).astype(np.float64) - x))
        assert abs(bias) < 1e-4  # truncation would give ~-2e-3 * mean|x|

    def test_non_finite_passthrough(self):
        x = np.array([np.inf, -np.inf, np.nan, 1.0], dtype=np.float32)
        out = round_tf32(x)
        assert np.isposinf(out[0]) and np.isneginf(out[1]) and np.isnan(out[2])

    def test_exact_values_unchanged(self):
        # values representable in 10 mantissa bits
        x = np.array([1.0, 0.5, 1024.0, 1.5], dtype=np.float32)
        np.testing.assert_array_equal(round_tf32(x), x)


def _round_tf32_oracle(x):
    """The allocating rounder the in-place chain replaced, kept verbatim
    as the oracle: RNE via (bits + 0xFFF + lsb) & mask, then every
    non-finite input passed through with np.where."""
    x = np.asarray(x, dtype=np.float32)
    bits = x.view(np.uint32)
    lsb = (bits >> np.uint32(13)) & np.uint32(1)
    rounded = (bits + np.uint32(0xFFF) + lsb) & np.uint32(0xFFFFE000)
    out = rounded.view(np.float32)
    finite = np.isfinite(x)
    if not finite.all():
        out = np.where(finite, out, x)
    return out


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint32).view(np.float32)


class TestRoundTf32MatchesOracle:
    """The in-place chain is bit-exact against the old implementation,
    through every ``out=`` form the engine and the simulator use."""

    @staticmethod
    def assert_bit_exact(x):
        want = _round_tf32_oracle(x).view(np.uint32)
        np.testing.assert_array_equal(round_tf32(x).view(np.uint32), want)
        out = np.empty_like(x)
        assert round_tf32(x, out=out) is out
        np.testing.assert_array_equal(out.view(np.uint32), want)
        inplace = x.copy()
        round_tf32(inplace, out=inplace)
        np.testing.assert_array_equal(inplace.view(np.uint32), want)

    def test_random_bit_patterns(self, rng):
        # every pattern class at once: normals, subnormals, inf, NaN
        x = _from_bits(rng.integers(0, 2**32, size=1 << 18,
                                    dtype=np.uint64).astype(np.uint32))
        self.assert_bit_exact(x)

    def test_ties_round_to_even(self, rng):
        # low 13 bits exactly 0x1000 (half an ulp): kept LSB 0 stays,
        # kept LSB 1 rounds up to even
        hi = rng.integers(0, 2**19, size=4096, dtype=np.uint64)
        bits = ((hi << 13) | 0x1000).astype(np.uint32)
        x = _from_bits(bits)
        self.assert_bit_exact(x)
        got = round_tf32(x).view(np.uint32)
        finite = np.isfinite(x)
        even = (bits >> 13) & 1 == 0
        assert (even & finite).any() and (~even & finite).any()
        np.testing.assert_array_equal(got[even & finite],
                                      (bits & 0xFFFFE000)[even & finite])
        np.testing.assert_array_equal(
            got[~even & finite],
            ((bits & 0xFFFFE000) + 0x2000)[~even & finite].astype(np.uint32))

    def test_largest_finite_carries_to_inf(self):
        x = _from_bits([0x7F7FFFFF, 0xFF7FFFFF, 0x7F7FF000, 0x7F7FEFFF])
        self.assert_bit_exact(x)
        got = round_tf32(x)
        assert np.isposinf(got[0]) and np.isneginf(got[1])
        assert np.isposinf(got[2])          # tie, odd LSB: rounds up
        assert np.isfinite(got[3])

    def test_specials_pass_through(self):
        bits = [0x00000000, 0x80000000,             # +-0
                0x00000001, 0x00001FFF, 0x00001000,  # subnormals
                0x00003000, 0x807FFFFF, 0x007FF000,
                0x7F800000, 0xFF800000,             # +-inf
                0x7FC00000, 0xFFC00000,             # quiet NaNs
                0x7F800001, 0x7FBFFFFF,             # signalling payloads
                0x7FFFFFFF, 0xFFFFFFFF,             # would carry past
                0x7FFFF000, 0xFFFFF001]             # the sign bit
        x = _from_bits(bits)
        self.assert_bit_exact(x)
        got = round_tf32(x).view(np.uint32)
        # non-finite inputs come back with their exact payloads
        nonfinite = ~np.isfinite(x)
        np.testing.assert_array_equal(got[nonfinite],
                                      np.asarray(bits, np.uint32)[nonfinite])

    def test_strided_input_into_block_buffer(self, rng):
        # the engine's use: a row band of a wider array into a buffer
        x = rng.standard_normal((300, 40)).astype(np.float32)
        x[6, 7] = np.nan                    # band row 2, column 3
        band = x[::3, 4:36]
        out = np.full((band.shape[0], band.shape[1]), 7.0, np.float32)
        round_tf32(band, out=out)
        assert np.isnan(out[2, 3])
        np.testing.assert_array_equal(
            out.view(np.uint32), _round_tf32_oracle(band).view(np.uint32))

    def test_float64_input_rounds_its_float32_cast(self, rng):
        x = rng.standard_normal(1000)
        np.testing.assert_array_equal(
            round_tf32(x).view(np.uint32),
            _round_tf32_oracle(x.astype(np.float32)).view(np.uint32))


class TestMmaUnit:
    def test_accumulates_correctly_fp64(self, rng):
        unit = MmaUnit(np.float64)
        a = rng.standard_normal((8, 16))
        b = rng.standard_normal((16, 8))
        acc = np.zeros((8, 8))
        unit.mma(a, b, acc)
        np.testing.assert_allclose(acc, a @ b, rtol=1e-12)

    def test_tf32_rounding_applied(self, rng):
        c = PerfCounters()
        unit = MmaUnit(np.float32, c, use_tf32=True)
        a = rng.standard_normal((16, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        acc = np.zeros((16, 8), np.float32)
        unit.mma(a, b, acc)
        expected = round_tf32(a) @ round_tf32(b)
        np.testing.assert_array_equal(acc, expected)

    def test_tf32_disabled(self, rng):
        unit = MmaUnit(np.float32, use_tf32=False)
        a = rng.standard_normal((16, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        acc = np.zeros((16, 8), np.float32)
        unit.mma(a, b, acc)
        np.testing.assert_array_equal(acc, a @ b)

    def test_instruction_and_flop_accounting(self, rng):
        c = PerfCounters()
        unit = MmaUnit(np.float64, c)
        a = rng.standard_normal((32, 16))
        b = rng.standard_normal((16, 32))
        acc = np.zeros((32, 32))
        unit.mma(a, b, acc)
        assert c.mma_ops == MMA_FP64.instructions_for(32, 32, 16)
        assert c.flops == 2 * 32 * 32 * 16
        assert c.abft_mma_ops == 0

    def test_abft_flag_counts_separately(self, rng):
        c = PerfCounters()
        unit = MmaUnit(np.float64, c)
        a = np.ones((8, 4))
        b = np.ones((4, 8))
        unit.mma(a, b, np.zeros((8, 8)), abft=True)
        assert c.abft_mma_ops == c.mma_ops > 0

    def test_shape_mismatch(self):
        unit = MmaUnit(np.float32)
        with pytest.raises(ValueError):
            unit.mma(np.ones((4, 4)), np.ones((5, 4)), np.zeros((4, 4)))


class TestSimtUnit:
    def test_fma_gemm(self, rng):
        unit = SimtUnit(np.float64)
        a = rng.standard_normal((8, 12))
        b = rng.standard_normal((12, 6))
        acc = np.zeros((8, 6))
        unit.fma_gemm(a, b, acc)
        np.testing.assert_allclose(acc, a @ b, rtol=1e-12)
        assert unit.counters.simt_fma == 8 * 6 * 12

    def test_weighted_sums(self, rng):
        c = PerfCounters()
        unit = SimtUnit(np.float64, c)
        tile = rng.standard_normal((6, 10))
        w = np.arange(1.0, 7.0)
        out = unit.weighted_rowsum(tile, w, abft=True)
        np.testing.assert_allclose(out, w @ tile, rtol=1e-12)
        assert c.abft_simt_ops == 60
        out2 = unit.weighted_colsum(tile, np.ones(10))
        np.testing.assert_allclose(out2, tile.sum(axis=1), rtol=1e-12)

    def test_square_rowsum(self, rng):
        unit = SimtUnit(np.float64)
        tile = rng.standard_normal((5, 7))
        np.testing.assert_allclose(unit.square_rowsum(tile),
                                   (tile ** 2).sum(axis=1), rtol=1e-12)

    def test_row_argmin(self):
        unit = SimtUnit(np.float32)
        tile = np.array([[3.0, 1.0, 2.0], [0.5, 4.0, 0.4]], np.float32)
        mins, args = unit.row_argmin(tile)
        np.testing.assert_array_equal(args, [1, 2])
        np.testing.assert_allclose(mins, np.array([1.0, 0.4], np.float32))

    def test_axpy(self):
        unit = SimtUnit(np.float32)
        out = unit.axpy(2.0, np.ones(4, np.float32), np.ones(4, np.float32))
        np.testing.assert_array_equal(out, np.full(4, 3.0, np.float32))
