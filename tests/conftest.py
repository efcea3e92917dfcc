"""Shared fixtures for the FT K-Means reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gemm.tiling import TileConfig
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import A100_PCIE_40GB, TESLA_T4


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=["a100", "t4"])
def device(request):
    return {"a100": A100_PCIE_40GB, "t4": TESLA_T4}[request.param]


@pytest.fixture
def a100():
    return A100_PCIE_40GB


@pytest.fixture
def t4():
    return TESLA_T4


@pytest.fixture(params=[np.float32, np.float64], ids=["fp32", "fp64"])
def dtype(request):
    return np.dtype(request.param)


@pytest.fixture
def small_tile(dtype):
    """A small valid tile usable for quick functional runs."""
    return TileConfig.make((64, 32, 16), (32, 32, 16), dtype)


@pytest.fixture
def counters():
    return PerfCounters()


@pytest.fixture
def operands(rng, dtype):
    """Small (samples, centroids) pair for kernel-level tests."""
    x = rng.standard_normal((192, 40)).astype(dtype)
    y = rng.standard_normal((24, 40)).astype(dtype)
    return x, y


@pytest.fixture
def blobs(rng):
    """Separable Gaussian blobs for end-to-end clustering tests."""
    from repro.data.synthetic import gaussian_blobs

    x, centers, labels = gaussian_blobs(600, 16, 5, np.float32, seed=7)
    return x, centers, labels


class BoundsLog:
    """What a pruned fit's bounds asked for and what its engines did.

    ``masks`` holds ``(m, mask)`` per live bounds round (``mask`` None
    when the round ran fully active), ``rows_pruned`` the rows every
    engine pass skipped.
    """

    def __init__(self):
        self.masks: list = []
        self.rows_pruned = 0

    def prunable(self) -> tuple[int, int]:
        """Rows a row-granular and a unit-granular lane skip for the
        logged masks.  The row lane skips every inactive row of the
        full units; the unit lane only units with no active row.  Both
        run a partial tail unit whole when any of its rows is active."""
        from repro.core.engine import GEMM_UNIT_ROWS as unit

        rows = units = 0
        for m, mask in self.masks:
            if mask is None:
                continue
            full = m // unit * unit
            tail = 0 if mask[full:].any() else m - full
            rows += full - int(mask[:full].sum()) + tail
            units += (full // unit - int(
                mask[:full].reshape(-1, unit).any(axis=1).sum())) * unit + tail
        return rows, units


@pytest.fixture
def bounds_log(monkeypatch):
    """Record every live bounds round's active mask and every engine
    pass's pruned rows (in-process engines only)."""
    from repro.core.bounds import BoundsState
    from repro.core.engine import FastPathEngine

    log = BoundsLog()
    begin, assign = BoundsState.begin_round, FastPathEngine.assign

    def begin_spy(self, *args, **kwargs):
        mask = begin(self, *args, **kwargs)
        log.masks.append((len(self.lb),
                          None if mask is None else mask.copy()))
        return mask

    def assign_spy(self, *args, **kwargs):
        before = self.stats.rows_pruned
        try:
            return assign(self, *args, **kwargs)
        finally:
            log.rows_pruned += self.stats.rows_pruned - before

    monkeypatch.setattr(BoundsState, "begin_round", begin_spy)
    monkeypatch.setattr(FastPathEngine, "assign", assign_spy)
    return log
