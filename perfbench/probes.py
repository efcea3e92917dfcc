"""Timing wrappers around each layer's public entry points.

:class:`LayerProbe` replaces the functions and methods listed in
:data:`PROBES` for the duration of a ``with`` block and records one
interval per call: probe name, the enclosing probe on the same thread,
start, end, nesting depth and whether it ran on the main thread.  The
estimator's own ``tracer=`` recorder supplies the spans inside the
engine and the coordinator; nothing in ``src/`` is modified.

The wrappers read clocks and, for a few probes, the sizes of arrays
already passed in; they never touch array contents that feed the fit,
so a probed fit is bit-identical to an unprobed one.
"""

from __future__ import annotations

import copy
import functools
import importlib
import threading
import time

import numpy as np

__all__ = ["PROBES", "LayerProbe"]

#: (module, class or None, attribute, probe name)
PROBES = (
    ("repro.core.api", None, "validate_data", "validate"),
    ("repro.core.api", None, "validate_weights", "validate"),
    ("repro.core.api", None, "validate_centroids", "validate"),
    ("repro.core.api", None, "initialize", "init"),
    ("repro.core.engine", "FastPathEngine", "begin_fit", "engine.begin_fit"),
    ("repro.core.engine", "FastPathEngine", "assign", "engine.assign"),
    ("repro.core.engine", "FastPathEngine", "end_fit", "engine.end_fit"),
    ("repro.core.bounds", "BoundsState", "begin_round", "bounds"),
    ("repro.core.bounds", "BoundsState", "refresh", "bounds"),
    ("repro.core.bounds", "BoundsState", "end_round", "bounds"),
    ("repro.core.update", "UpdateStage", "update", "update"),
    ("repro.core.update", None, "dmr_protected", "abft.dmr"),
    ("repro.core.accumulate", "StreamedAccumulator", "feed", "update.feed"),
    ("repro.core.convergence", "ConvergenceMonitor", "update", "convergence"),
    ("repro.dist.coordinator", "Coordinator", "fit", "dist.coord_fit"),
    ("repro.dist.executors", "BaseExecutor", "start", "dist.boot"),
    ("repro.dist.worker", "ShardWorker", "run_round", "dist.worker_round"),
)


class LayerProbe:
    """Records every probed call made inside its ``with`` block.

    Attributes
    ----------
    calls:
        ``(name, parent, t0, t1, depth, on_main_thread)`` per call.
    engines:
        ``[engine, stats at begin_fit, rows]`` per ``begin_fit``, so
        engine counters can be read as per-fit deltas, worker engines
        included.
    operand_bytes:
        Hoisted operand bytes (rounded matrix + transposed copy) held by
        each engine when its fit ended.
    certified_rows / bounded_rows:
        Rows the bounds certified, over rows of all bounded passes.
    fed_bytes / fed_rows:
        Sample and label bytes (and rows) streamed into the update
        accumulators, fused feeds, DMR duplicates and merges alike.
    """

    def __init__(self):
        self.calls: list[tuple] = []
        self.engines: list[list] = []
        self.operand_bytes = 0
        self.certified_rows = 0
        self.bounded_rows = 0
        self.fed_bytes = 0
        self.fed_rows = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- hooks run outside the timed interval --------------------------
    def _after_begin_fit(self, args, out) -> None:
        engine, x = args[0], args[1]
        with self._lock:
            self.engines.append([engine, copy.copy(engine.stats),
                                 int(x.shape[0])])

    def _before_end_fit(self, args) -> None:
        ops = args[0].export_operands()
        held = sum(ops[k].nbytes for k in ("x_rounded", "x_t") if k in ops)
        with self._lock:
            self.operand_bytes += held

    def _after_begin_round(self, args, out) -> None:
        rows = int(args[2].shape[0])
        certified = 0 if out is None else rows - int(np.count_nonzero(out))
        with self._lock:
            self.certified_rows += certified
            self.bounded_rows += rows

    def _before_feed(self, args) -> None:
        x_chunk, labels = args[1], args[2]
        with self._lock:
            self.fed_bytes += int(x_chunk.nbytes + labels.nbytes)
            self.fed_rows += int(x_chunk.shape[0])

    # -- installation ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, before=None, after=None):
        probe = self
        main = threading.main_thread()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack = probe._stack()
            parent = stack[-1] if stack else ""
            stack.append(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                probe.calls.append((name, parent, t0, t1, len(stack),
                                    threading.current_thread() is main))
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def __enter__(self) -> "LayerProbe":
        hooks = {
            ("FastPathEngine", "begin_fit"): (None, self._after_begin_fit),
            ("FastPathEngine", "end_fit"): (self._before_end_fit, None),
            ("BoundsState", "begin_round"): (None, self._after_begin_round),
            ("StreamedAccumulator", "feed"): (self._before_feed, None),
        }
        for module, owner, attr, name in PROBES:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = target.__dict__[attr]
            before, after = hooks.get((owner, attr), (None, None))
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, before, after))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    # -- reductions -----------------------------------------------------
    def total(self, name: str, parent: str | None = None) -> float:
        """Summed wall of every call to ``name`` (optionally only those
        made directly under probe ``parent``)."""
        return sum(c[3] - c[2] for c in self.calls
                   if c[0] == name and (parent is None or c[1] == parent))

    def top_level_s(self) -> float:
        """Wall covered by outermost probed calls on the main thread."""
        return sum(c[3] - c[2] for c in self.calls if c[4] == 0 and c[5])
