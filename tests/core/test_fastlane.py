"""Property tests of the fault-free fast lane.

The contract: the hoisted transposed update-feed operand and the
stacked per-chunk GEMM dispatch are pure implementation shortcuts —
labels, best-distance **bit patterns** and fused update sums are
identical to the per-unit walk for any configuration, and under SEU
injection the unit walk still fires for every chunk a fault plan
targets.  The unhoisted reference closes the engine's memory budget
(``operand_budget``), never the chunk budget: ``chunk_bytes`` bounds
assignment scratch only.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FTKMeans
from repro.core.accumulate import StreamedAccumulator, accumulate_oneshot
from repro.core.config import KMeansConfig
import repro.core.engine as engine_mod
from repro.core.engine import FastPathEngine, host_operand_budget
from repro.core.tensorop import default_tensorop_tile
from repro.core.variants import VARIANTS
from repro.dist.checkpoint import CheckpointStore
from repro.gpusim.counters import PerfCounters
from repro.gpusim.faults import FaultInjector

TILE = default_tensorop_tile(np.float32)

#: a chunk budget far below the fixture's x.nbytes (many chunks)
SMALL_CHUNK = 256 * 10 * 4


def _run(x, y, *, batch_chunks, chunk_bytes=None, operand_budget=None,
         tf32=True, injector_seed=None, p=0.7, weights=None,
         alloc_hook=None):
    """One fused assignment pass; returns everything comparable.

    ``operand_budget=0`` declines the hoist: the staging-path reference.
    """
    inj = (FaultInjector(injector_seed, p, np.float32)
           if injector_seed is not None else None)
    eng = FastPathEngine(None, np.float32, tile=TILE, tf32=tf32,
                         injector=inj, chunk_bytes=chunk_bytes,
                         batch_chunks=batch_chunks, alloc_hook=alloc_hook)
    if operand_budget is not None:
        eng.operand_budget = operand_budget
    acc = StreamedAccumulator(y.shape[0], x.shape[1])
    acc.bind_weights(weights)
    counters = PerfCounters()
    try:
        eng.begin_fit(x, y.shape[0])
        labels, best = eng.assign(x, y, counters, accumulator=acc)
        return {
            "labels": labels.copy(),
            "best_bits": best.view(np.uint32).copy(),
            "sums_bits": acc.packed().view(np.uint64).copy(),
            "stats": eng.stats,
            "hoisted": eng._cache.x_t is not None,
            "counters": counters,
        }
    finally:
        eng.end_fit()


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1500, 24)).astype(np.float32)
    y = rng.standard_normal((10, 24)).astype(np.float32)
    return x, y


class TestFastLaneBitIdentity:
    @pytest.mark.parametrize("tf32", [True, False])
    def test_hoisted_and_batched_vs_per_unit(self, data, tf32):
        """The acceptance property: fast lane == per-unit path, bitwise."""
        x, y = data
        ref = _run(x, y, batch_chunks=False, chunk_bytes=SMALL_CHUNK,
                   operand_budget=0, tf32=tf32)
        fast = _run(x, y, batch_chunks=True, tf32=tf32)
        assert not ref["hoisted"] and fast["hoisted"]
        # TF32 rounds block by block inside the stacked lane, so every
        # fault-free chunk batches either way
        stats = fast["stats"]
        assert stats.batched_chunks == stats.chunks_run
        assert np.array_equal(ref["labels"], fast["labels"])
        assert np.array_equal(ref["best_bits"], fast["best_bits"])
        assert np.array_equal(ref["sums_bits"], fast["sums_bits"])

    def test_hoist_only_and_batch_only(self, data):
        """Each shortcut is independently bit-identical."""
        x, y = data
        ref = _run(x, y, batch_chunks=False, chunk_bytes=SMALL_CHUNK,
                   operand_budget=0, tf32=False)
        hoist_only = _run(x, y, batch_chunks=False, chunk_bytes=SMALL_CHUNK,
                          tf32=False)
        batch_only = _run(x, y, batch_chunks=True, chunk_bytes=SMALL_CHUNK,
                          operand_budget=0, tf32=False)
        assert hoist_only["hoisted"] and not batch_only["hoisted"]
        assert hoist_only["stats"].batched_chunks == 0
        assert batch_only["stats"].batched_chunks > 0
        for got in (hoist_only, batch_only):
            assert np.array_equal(ref["labels"], got["labels"])
            assert np.array_equal(ref["best_bits"], got["best_bits"])
            assert np.array_equal(ref["sums_bits"], got["sums_bits"])

    def test_float64_batches_without_hoist(self, data):
        """No rounding on the float64 path: stacked dispatch fires even
        without the hoisted operand, and the bits still match."""
        x, y = data
        x64, y64 = x.astype(np.float64), y.astype(np.float64)

        def run64(batch):
            eng = FastPathEngine(None, np.float64, tile=TILE, tf32=False,
                                 batch_chunks=batch,
                                 chunk_bytes=256 * 10 * 8)
            try:
                eng.begin_fit(x64, y64.shape[0])
                labels, best = eng.assign(x64, y64, PerfCounters())
                return (labels.copy(), best.view(np.uint64).copy(),
                        eng.stats.batched_chunks)
            finally:
                eng.end_fit()

        l_ref, b_ref, n_ref = run64(False)
        l_fast, b_fast, n_fast = run64(True)
        assert n_ref == 0 and n_fast > 0
        assert np.array_equal(l_ref, l_fast)
        assert np.array_equal(b_ref, b_fast)

    def test_weighted_sums_match_oneshot(self, data):
        """Bound-source weighted accumulation equals the seed scatter."""
        x, y = data
        w = np.random.default_rng(3).random(x.shape[0])
        fast = _run(x, y, batch_chunks=True, weights=w)
        assert fast["hoisted"]
        one = accumulate_oneshot(x, fast["labels"], y.shape[0],
                                 sample_weight=w)
        assert np.array_equal(one.view(np.uint64), fast["sums_bits"])

    @given(m=st.integers(40, 600), k=st.integers(2, 24),
           n=st.integers(2, 12), chunk_kb=st.sampled_from([1, 3, 16, 1024]),
           inject=st.booleans(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_property_fast_lane_bit_identical(self, m, k, n, chunk_kb,
                                              inject, seed):
        """Random shapes/budgets/injection: fast lane == per-unit path
        (labels and best-distance bit patterns)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, k)).astype(np.float32)
        y = rng.standard_normal((n, k)).astype(np.float32)
        inj_seed = seed if inject else None
        ref = _run(x, y, batch_chunks=False, chunk_bytes=chunk_kb << 10,
                   operand_budget=0, injector_seed=inj_seed)
        # any chunk budget: the fast run always hoists
        fast = _run(x, y, batch_chunks=True, chunk_bytes=chunk_kb << 10,
                    injector_seed=inj_seed)
        assert fast["hoisted"] and not ref["hoisted"]
        assert np.array_equal(ref["labels"], fast["labels"])
        assert np.array_equal(ref["best_bits"], fast["best_bits"])
        assert np.array_equal(ref["sums_bits"], fast["sums_bits"])
        if inject:
            assert (ref["counters"].errors_injected
                    == fast["counters"].errors_injected)


class TestFaultLaneStillWalks:
    def test_planned_chunks_walk_the_unit_grid(self, data):
        """With injection on, every chunk a plan targets must take the
        per-unit walk; with p=1 every block draws a plan, so no chunk
        may batch — and the bits still match the walk.  Unrounded, so
        the stacked lane is live for clean chunks."""
        x, y = data
        ref = _run(x, y, batch_chunks=False, chunk_bytes=SMALL_CHUNK,
                   injector_seed=5, p=1.0, tf32=False)
        fast = _run(x, y, batch_chunks=True, chunk_bytes=SMALL_CHUNK,
                    injector_seed=5, p=1.0, tf32=False)
        assert fast["counters"].errors_injected > 0
        assert fast["stats"].batched_chunks == 0  # every chunk walked
        assert np.array_equal(ref["labels"], fast["labels"])
        assert np.array_equal(ref["best_bits"], fast["best_bits"])

    def test_sparse_plans_batch_the_clean_chunks(self, data):
        """With sparse injection, chunks without a plan batch and
        chunks with one walk — mixed dispatch, identical bits."""
        x, y = data
        fast = _run(x, y, batch_chunks=True, chunk_bytes=SMALL_CHUNK,
                    injector_seed=123, p=0.02, tf32=False)
        ref = _run(x, y, batch_chunks=False, chunk_bytes=SMALL_CHUNK,
                   injector_seed=123, p=0.02, tf32=False)
        stats = fast["stats"]
        assert stats.batched_chunks > 0
        if fast["counters"].errors_injected:
            assert stats.batched_chunks < stats.chunks_run
        assert np.array_equal(ref["labels"], fast["labels"])
        assert np.array_equal(ref["best_bits"], fast["best_bits"])


class TestOperandBudget:
    def test_over_budget_falls_back(self, data):
        """An x larger than the memory budget is not hoisted — the run
        keeps the per-feed staging path, with the same bits (checked
        against the one-shot scatter oracle too)."""
        x, y = data
        got = _run(x, y, batch_chunks=True, operand_budget=x.nbytes // 2)
        assert not got["hoisted"]
        ref = _run(x, y, batch_chunks=False, chunk_bytes=SMALL_CHUNK,
                   operand_budget=0)
        assert np.array_equal(ref["labels"], got["labels"])
        assert np.array_equal(ref["best_bits"], got["best_bits"])
        assert np.array_equal(ref["sums_bits"], got["sums_bits"])
        one = accumulate_oneshot(x, got["labels"], y.shape[0])
        assert np.array_equal(one.view(np.uint64), got["sums_bits"])

    def test_tf32_fit_hoists_transpose_not_rounded(self, monkeypatch):
        """A TF32 fit with a chunk budget below x.nbytes holds the
        transposed update operand and no rounded copy of x, and is
        bit-equal to the same fit with the memory budget closed."""
        held = []
        end_fit = FastPathEngine.end_fit

        def spy(engine):
            held.append(set(engine.export_operands()))
            end_fit(engine)

        monkeypatch.setattr(FastPathEngine, "end_fit", spy)
        x = np.random.default_rng(4).standard_normal(
            (2048, 16)).astype(np.float32)
        kw = dict(n_clusters=8, variant="ft", seed=2, max_iter=4, tol=0.0,
                  chunk_bytes=x.nbytes // 4)
        hoisted = FTKMeans(**kw).fit(x)
        assert {"x_norms", "x_t"} in held
        assert not any("x_rounded" in ops for ops in held)
        held.clear()
        monkeypatch.setattr(engine_mod, "host_operand_budget", lambda: 0)
        walked = FTKMeans(**kw).fit(x)
        assert held and not any("x_t" in ops for ops in held)
        assert np.array_equal(hoisted.labels_, walked.labels_)
        assert np.array_equal(hoisted.cluster_centers_.view(np.uint32),
                              walked.cluster_centers_.view(np.uint32))

    def test_charged_to_alloc_tracker(self, data):
        x, y = data
        allocs = []
        eng = FastPathEngine(None, np.float32, tile=TILE, tf32=True,
                             alloc_hook=lambda n, b: allocs.append((n, b)))
        acc = StreamedAccumulator(y.shape[0], x.shape[1])
        try:
            eng.begin_fit(x, y.shape[0])
            eng.assign(x, y, PerfCounters(), accumulator=acc)
        finally:
            eng.end_fit()
        charged = [(n, b) for n, b in allocs if n.startswith("operand_cache")]
        assert charged == [("operand_cache_transpose", x.nbytes)]

    def test_operand_budget_is_host_memory(self):
        """The budget is a quarter of the usable memory (x and its copy
        within half of it), read once, and no chunk budget moves it."""
        budget = host_operand_budget()
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert budget == engine_mod._usable_memory() // 4 > 0
        assert 2 * budget <= phys // 2
        for chunk_bytes in (123, None, 1 << 30):
            assert FastPathEngine(None, np.float32,
                                  chunk_bytes=chunk_bytes
                                  ).operand_budget == budget

    @pytest.mark.parametrize("limit,capped", [("max", False),
                                              (str(1 << 30), True)])
    def test_usable_memory_honours_a_cgroup_limit(self, tmp_path,
                                                  monkeypatch, limit,
                                                  capped):
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        path = tmp_path / "memory.max"
        path.write_text(limit + "\n")
        monkeypatch.setattr(engine_mod, "_CGROUP_LIMITS",
                            (str(path), str(tmp_path / "absent")))
        assert engine_mod._usable_memory() == (min(phys, 1 << 30) if capped
                                               else phys)

    def test_removed_knobs_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            KMeansConfig(operand_cache="auto")
        with pytest.raises(TypeError):
            KMeansConfig(reduce_topology="stream")
        with pytest.raises(TypeError):
            KMeansConfig(transport="shm")
        with pytest.raises(TypeError):
            KMeansConfig(engine_workers=1)
        with pytest.raises(TypeError):
            KMeansConfig(checkpoint_sync=True)
        for knob in ("operand_cache", "reduce_topology", "event_hook",
                     "transport", "engine_workers", "checkpoint_sync"):
            with pytest.raises(TypeError):
                FTKMeans(**{knob: None})
        with pytest.raises(TypeError):
            CheckpointStore(tmp_path, sync=True)

    @pytest.mark.parametrize("slack,hoisted", [(-1, False), (0, True),
                                               (1, True)])
    def test_hoist_boundary_is_x_nbytes(self, data, slack, hoisted):
        """The transposed operand is admitted exactly when
        ``x.nbytes <= operand_budget`` — whatever ``chunk_bytes`` is —
        and admitting it never moves the bits of the pass."""
        x, y = data
        got = _run(x, y, batch_chunks=True, chunk_bytes=SMALL_CHUNK,
                   operand_budget=x.nbytes + slack)
        assert got["hoisted"] is hoisted
        ref = _run(x, y, batch_chunks=False, chunk_bytes=SMALL_CHUNK,
                   operand_budget=0)
        assert np.array_equal(ref["labels"], got["labels"])
        assert np.array_equal(ref["best_bits"], got["best_bits"])
        assert np.array_equal(ref["sums_bits"], got["sums_bits"])

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_constructors_reject_removed_knobs(self, variant):
        VARIANTS[variant](None, np.float32)
        with pytest.raises(TypeError):
            VARIANTS[variant](None, np.float32, operand_cache="auto")
        for build in (VARIANTS[variant], FastPathEngine):
            with pytest.raises(TypeError):
                build(None, np.float32, workers=1)

    def test_transient_pass_never_hoists(self, data):
        """predict/score-style passes on foreign data keep the staging
        path: the hoisted operand describes only the fitted array."""
        x, y = data
        eng = FastPathEngine(None, np.float32, tile=TILE, tf32=True)
        try:
            eng.begin_fit(x, y.shape[0])
            other = x[:300].copy()
            acc = StreamedAccumulator(y.shape[0], x.shape[1])
            labels, _ = eng.assign(other, y, PerfCounters(), accumulator=acc)
            # fed through the staging path, not the fit's bound source
            one = accumulate_oneshot(other, labels, y.shape[0])
            assert np.array_equal(one, acc.packed())
        finally:
            eng.end_fit()


def _spy_charges(monkeypatch) -> list:
    """Every (name, nbytes) any engine charges from here on."""
    charged = []
    record = FastPathEngine._record_alloc

    def spy(engine, name, nbytes):
        charged.append((name, nbytes))
        record(engine, name, nbytes)

    monkeypatch.setattr(FastPathEngine, "_record_alloc", spy)
    return charged


class TestDefaultKnobHoist:
    """Regression: a fit whose x outgrows ``chunk_bytes`` still hoists
    exactly one x-sized transpose, with the staging path's bits."""

    def test_engine(self, data):
        x, y = data
        allocs = []
        got = _run(x, y, batch_chunks=True, chunk_bytes=SMALL_CHUNK,
                   alloc_hook=lambda n, b: allocs.append((n, b)))
        assert SMALL_CHUNK < x.nbytes and got["hoisted"]
        assert [(n, b) for n, b in allocs if n.startswith("operand")] == [
            ("operand_cache_transpose", x.nbytes)]
        ref = _run(x, y, batch_chunks=True, chunk_bytes=SMALL_CHUNK,
                   operand_budget=0)
        assert not ref["hoisted"]
        for key in ("labels", "best_bits", "sums_bits"):
            assert np.array_equal(ref[key], got[key])
        one = accumulate_oneshot(x, got["labels"], y.shape[0])
        assert np.array_equal(one.view(np.uint64), got["sums_bits"])

    def test_estimator_at_default_knobs(self, monkeypatch):
        """No knob but the shape: x outgrows the device-derived chunk
        budget, the update stage's DMR duplicate included."""
        x = np.random.default_rng(9).standard_normal(
            (90_000, 64)).astype(np.float32)
        assert x.nbytes > KMeansConfig().device.fastpath_chunk_bytes()
        kw = dict(n_clusters=4, seed=0, max_iter=2, tol=0.0)
        charged = _spy_charges(monkeypatch)
        hoisted = FTKMeans(**kw).fit(x)
        assert [(n, b) for n, b in charged if n.startswith("operand")] == [
            ("operand_cache_transpose", x.nbytes)]
        charged.clear()
        monkeypatch.setattr(engine_mod, "host_operand_budget", lambda: 0)
        staged = FTKMeans(**kw).fit(x)
        assert not any(n.startswith("operand") for n, _ in charged)
        assert np.array_equal(hoisted.labels_, staged.labels_)
        assert np.array_equal(hoisted.cluster_centers_.view(np.uint32),
                              staged.cluster_centers_.view(np.uint32))
        assert hoisted.inertia_history_ == staged.inertia_history_


class TestBoundSourceAccumulator:
    def test_bind_source_t_validates_shape(self):
        acc = StreamedAccumulator(4, 8)
        with pytest.raises(ValueError):
            acc.bind_source_t(np.zeros((7, 100)))

    def test_feed_past_bound_source_raises(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 8)).astype(np.float32)
        acc = StreamedAccumulator(4, 8)
        acc.bind_source_t(np.ascontiguousarray(x[:30].T))
        labels = np.zeros(50, dtype=np.int64)
        acc.feed(x[:30], labels[:30])
        with pytest.raises(ValueError, match="past bound source"):
            acc.feed(x[30:], labels[30:])

    def test_binding_survives_reset(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 6)).astype(np.float32)
        labels = rng.integers(0, 5, 200)
        acc = StreamedAccumulator(5, 6)
        acc.bind_source_t(np.ascontiguousarray(x.T))
        for _ in range(2):
            acc.reset()
            for lo in range(0, 200, 64):
                acc.feed(x[lo:lo + 64], labels[lo:lo + 64])
            assert np.array_equal(acc.packed(),
                                  accumulate_oneshot(x, labels, 5))

    def test_unbind_restores_staging_path(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 6)).astype(np.float32)
        labels = rng.integers(0, 5, 100)
        acc = StreamedAccumulator(5, 6)
        acc.bind_source_t(np.ascontiguousarray(x.T))
        acc.bind_source_t(None)
        acc.feed(x, labels)
        assert np.array_equal(acc.packed(), accumulate_oneshot(x, labels, 5))
