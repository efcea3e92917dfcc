"""Hypothesis: tracing is numerics-neutral on arbitrary fits.

For any workload shape, seed and SEU-injection rate, a fit with a
:class:`~repro.obs.trace.TraceRecorder` attached must walk a
bit-identical trajectory to the same fit without one — the recorder
reads clocks only, never arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import FTKMeans
from repro.obs import TraceRecorder


def _fit(x, k, seed, p_inject, tracer):
    km = FTKMeans(n_clusters=k, mode="fast", max_iter=4, tol=0.0,
                  seed=seed, p_inject=p_inject,
                  variant="ft" if p_inject else "tensorop",
                  tracer=tracer)
    km.fit(x)
    return km


class TestTracingNeutrality:
    @given(m=st.integers(32, 300), n_features=st.sampled_from([4, 8, 16]),
           k=st.integers(2, 6), seed=st.integers(0, 2 ** 16),
           p_inject=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=8, deadline=None)
    def test_traced_fit_bit_identical(self, m, n_features, k, seed,
                                      p_inject):
        rng = np.random.default_rng(seed)
        x = rng.random((m, n_features), dtype=np.float64).astype(np.float32)
        base = _fit(x, k, seed, p_inject, tracer=None)
        rec = TraceRecorder()
        traced = _fit(x, k, seed, p_inject, tracer=rec)
        assert np.array_equal(base.labels_, traced.labels_)
        assert np.array_equal(base.cluster_centers_.view(np.uint32),
                              traced.cluster_centers_.view(np.uint32))
        assert base.inertia_ == traced.inertia_
        # spans really recorded (the traced run wasn't a silent no-op),
        # the update operand's hoist among them
        assert {"fit", "iteration", "operand_hoist"} <= {
            s.name for s in rec.spans}

    @given(m=st.integers(64, 400), n_workers=st.integers(2, 3),
           executor=st.sampled_from(["serial", "thread", "process"]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=6, deadline=None)
    def test_traced_sharded_fit_bit_identical(self, m, n_workers, executor,
                                              seed):
        """The coordinator's hoist and boot spans, the BLAS thread count
        on the fit span (and the workers' borrowed views) leave a
        sharded fit's bits alone."""
        rng = np.random.default_rng(seed)
        x = rng.random((m, 8), dtype=np.float64).astype(np.float32)

        def fit(tracer):
            return FTKMeans(n_clusters=4, max_iter=4, tol=0.0, seed=seed,
                            n_workers=n_workers, executor=executor,
                            tracer=tracer).fit(x)

        base = fit(None)
        rec = TraceRecorder()
        traced = fit(rec)
        assert np.array_equal(base.labels_, traced.labels_)
        assert np.array_equal(base.cluster_centers_.view(np.uint32),
                              traced.cluster_centers_.view(np.uint32))
        assert base.inertia_history_ == traced.inertia_history_
        hoists = [s for s in rec.spans if s.name == "operand_hoist"]
        assert len(hoists) == 1 and hoists[0].meta["nbytes"] == x.nbytes
        boots = [s for s in rec.spans if s.name == "boot"]
        assert len(boots) == 1
        assert boots[0].meta["n_workers"] == traced.n_workers_
        (fit_span,) = [s for s in rec.spans
                       if s.name == "fit" and "blas_threads" in s.meta]
        assert fit_span.meta["blas_threads"] == traced.dist_blas_threads_
        assert traced.dist_blas_threads_ == base.dist_blas_threads_
