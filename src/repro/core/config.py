"""Configuration for the FT K-Means estimator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.abft.schemes import AbftScheme, get_scheme
from repro.core.bounds import PRUNE_MODES
from repro.gemm.tiling import TileConfig
from repro.gpusim.device import DeviceSpec, get_device

__all__ = ["KMeansConfig", "VARIANT_NAMES", "MODES", "EXECUTORS",
           "REASSIGNMENT_MODES", "PRUNE_MODES"]

#: assignment-stage implementations, in the paper's optimisation order
VARIANT_NAMES = ("naive", "v1", "v2", "v3", "tensorop", "ft")

#: execution modes of the simulator
MODES = ("fast", "functional")

#: executor backends of the sharded multi-worker layer (repro.dist)
EXECUTORS = ("serial", "thread", "process")

#: empty-cluster handling policies of the online/mini-batch update
REASSIGNMENT_MODES = ("deterministic", "count_threshold", "random")


@dataclass
class KMeansConfig:
    """All knobs of a K-means run.

    Attributes
    ----------
    n_clusters:
        K — number of centroids.
    variant:
        Assignment-stage implementation ('naive', 'v1', 'v2', 'v3',
        'tensorop', 'ft'); the paper's step-wise ladder (Sec. III-A) plus
        the fault-tolerant final form.
    dtype:
        float32 or float64.
    device:
        'a100' / 't4' or a :class:`DeviceSpec`.
    mode:
        'fast' (vectorised, identical numerics, for large problems) or
        'functional' (tile-accurate dataflow, for verification).
    tile:
        Kernel tile parameters; None selects a sensible default, 'auto'
        asks the code-generation selector for the best feasible kernel.
    abft:
        Fault-tolerance scheme name (implied 'ftkmeans' when variant='ft';
        'none' otherwise).
    p_inject:
        SEU probability per threadblock per kernel (error-injection
        experiments).  The naive variant runs no GEMM threadblocks to
        inject into, so it rejects ``p_inject > 0``.
    dmr_update:
        Protect the centroid-update stage (the paper's DMR, Sec. I):
        the accumulated sums are verified against e1/e2 checksums formed
        in the same pass (:mod:`repro.abft.sumcheck`), and an alarm
        re-accumulates.
    use_tf32:
        TF32 rounding on the FP32 tensor-core path (paper default: on).
    chunk_bytes:
        Memory budget of the blocked streaming fast-path engine (scratch
        per assignment pass).  None auto-derives the budget from the
        device's L2 capacity.
    prune:
        Cross-iteration bound pruning of the assignment stage
        (:mod:`repro.core.bounds`): once most samples stop changing
        clusters, the engine skips their distance rows entirely and
        routes only the active set through the chunk GEMM.  Pruning is
        **bit-exact** — a row is skipped only when its assigned
        centroid's bits are frozen and a float-error-margined lower
        bound certifies every competitor, so labels, inertia and the
        full fit trajectory are bit-identical to the unpruned engine
        (sharded fits included; bounds are shard-local).  'auto'
        (default) keeps one float64 Hamerly bound per sample; 'off'
        disables pruning.  The bounds arrays carry their own
        checksummed protection story (see ``docs/architecture.md``).
    batch_size:
        When set, ``fit`` runs mini-batch K-means: each epoch streams
        ``batch_size``-sample batches (a fresh shuffle per epoch)
        through ``partial_fit``-style online updates instead of
        full-batch Lloyd iterations.  ``max_iter`` counts epochs and
        convergence is judged on the EWA of per-batch inertia.  None
        (default) keeps the full-batch Lloyd loop.
    n_workers:
        Shard the full-batch fit across this many simulated
        devices/processes through :mod:`repro.dist` (fast mode only).
        Samples split into GEMM-unit-aligned shards; workers compute
        per-shard labels and distances map-reduce style and the
        coordinator sums the rows in shard order with
        sequential-continuation semantics (the round's only
        accumulation), so the fit stays bit-identical to
        ``n_workers=1`` for any shard count or executor.  1 (default)
        keeps the in-process engine.
    executor:
        Worker backend when ``n_workers > 1``: 'serial' (in-process
        loop, correctness/debug), 'thread' (worker threads; BLAS
        releases the GIL) or 'process' (one OS process per worker —
        survives real worker death).
    checkpoint_every:
        With ``n_workers > 1``: snapshot the coordinator state
        (centroids, iteration, convergence monitor, RNG/counter state)
        every this many iterations, so a crashed worker resumes from
        the last checkpoint instead of iteration 0.  0 disables
        periodic checkpoints (recovery then restarts the fit).
    round_timeout:
        With ``n_workers > 1``: seconds each coordinator round may take
        before unanswered workers are classified stalled (terminated
        where the backend allows, then recovered like a crash).  None
        (default) disables the deadline — a stalled-but-alive worker
        then blocks the fit, exactly like a real straggler with no
        failure detector.  ``"auto"`` sizes the deadline adaptively as
        a multiple of a trailing median of observed round times (no
        deadline until enough rounds have been observed), so the
        detector tracks the workload instead of needing a hand-tuned
        budget.  With a fixed float, size it well above an honest
        round's wall time — including post-shrink rounds under
        ``elastic=True``, where one survivor may hold every shard
        (worker boot is already excluded: the process backend
        handshakes at spawn).  An undersized deadline turns
        healthy-but-slow workers into phantom stalls.
    elastic:
        With ``n_workers > 1``: recover from a worker loss by
        re-sharding the lost rows onto the surviving workers
        (shrink-and-continue) instead of rebuilding the lost workers in
        place.  A ready hot spare still promotes first, and without
        ``target_workers`` / ``hot_spares`` the fleet stays shrunk.
        The re-plan keeps shard boundaries on the same GEMM-unit grid
        and shards in row order, so the fit stays bit-identical to
        ``n_workers=1`` for any membership history.
    target_workers:
        With ``n_workers > 1``: fleet size the self-healing manager
        steers back toward after a loss (spare promotion, or elastic
        shrink followed by re-expansion at a later round boundary —
        replacements reuse the lost worker ids, so a full regrow
        restores the original shard plan).  None (default, with
        ``hot_spares=0``) means no re-expansion; must not exceed
        ``n_workers``.
    hot_spares:
        With ``n_workers > 1``: replacement capacity provisioned ahead
        of any failure.  On the process backend these are genuinely
        pre-booted (but unconfigured) children, so promoting one onto a
        dead worker's shard skips the child cold-start; in-process
        backends treat a spare as a promotion token.  The pool is
        re-provisioned after every promotion/expansion.
    heartbeat_interval:
        With ``n_workers > 1``: minimum seconds between the fleet
        manager's between-round liveness sweeps (None disables).  A
        worker that answered its round but wedged afterwards is invisible
        to the round deadline until the *next* round blows it; the
        heartbeat catches it in roughly ``2 x heartbeat_interval``
        seconds, independent of the round budget.
    reassignment_mode:
        Empty-cluster policy of the online/mini-batch update step:
        'deterministic' (clusters with zero running weight take the
        batch's worst-fit samples, stable order), 'count_threshold'
        (clusters below ``reassignment_ratio`` x the largest running
        count are re-seeded from worst-fit samples) or 'random'
        (below-threshold clusters re-seed from random batch samples
        drawn proportional to squared distance, à la sklearn's
        ``reassignment_ratio``).
    reassignment_ratio:
        Count-fraction threshold used by the 'count_threshold' and
        'random' modes.
    init / max_iter / tol / seed:
        Standard Lloyd controls; ``tol`` is on relative inertia change.
    """

    n_clusters: int = 8
    variant: str = "tensorop"
    dtype: np.dtype = np.dtype(np.float32)
    device: DeviceSpec | str = "a100"
    mode: str = "fast"
    tile: TileConfig | str | None = None
    abft: str | AbftScheme = "none"
    p_inject: float = 0.0
    dmr_update: bool = True
    use_tf32: bool = True
    chunk_bytes: int | None = None
    prune: str = "auto"
    batch_size: int | None = None
    n_workers: int = 1
    executor: str = "serial"
    checkpoint_every: int = 0
    round_timeout: float | str | None = None
    elastic: bool = False
    target_workers: int | None = None
    hot_spares: int = 0
    heartbeat_interval: float | None = None
    reassignment_mode: str = "deterministic"
    reassignment_ratio: float = 0.01
    init: str = "k-means++"
    max_iter: int = 50
    tol: float = 1e-4
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.variant not in VARIANT_NAMES:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {VARIANT_NAMES}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        self.dtype = np.dtype(self.dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32/float64, got {self.dtype}")
        self.device = get_device(self.device)
        if self.variant == "ft" and str(self.abft) in ("none",):
            self.abft = "ftkmeans"
        self.abft = get_scheme(self.abft)
        if self.p_inject and self.abft.name == "none" and self.variant == "ft":
            raise ValueError("error injection with variant='ft' needs a scheme")
        if not 0.0 <= self.p_inject <= 1.0:
            raise ValueError(f"p_inject must be in [0, 1], got {self.p_inject}")
        if self.p_inject and self.variant == "naive":
            # the naive kernel has no threadblock tiles to inject into: an
            # injection experiment on it would silently measure a clean run
            raise ValueError("error injection needs a GEMM variant; "
                             "variant='naive' has no threadblocks to inject "
                             "into")
        if self.chunk_bytes is not None and self.chunk_bytes < 1:
            raise ValueError(
                f"chunk_bytes must be >= 1, got {self.chunk_bytes}")
        if self.prune not in PRUNE_MODES:
            raise ValueError(
                f"unknown prune mode {self.prune!r}; "
                f"choose from {PRUNE_MODES}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; choose from {EXECUTORS}")
        if self.n_workers > 1 and self.mode != "fast":
            raise ValueError(
                "sharded execution (n_workers > 1) requires mode='fast'")
        if self.n_workers > 1 and self.batch_size is not None:
            raise ValueError(
                "sharded execution (n_workers > 1) covers the full-batch "
                "fit only; it cannot be combined with batch_size")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if isinstance(self.round_timeout, str):
            if self.round_timeout != "auto":
                raise ValueError(
                    f"round_timeout must be a positive number, 'auto' or "
                    f"None, got {self.round_timeout!r}")
        elif self.round_timeout is not None:
            self.round_timeout = float(self.round_timeout)
            if self.round_timeout <= 0:
                raise ValueError(
                    f"round_timeout must be > 0, got {self.round_timeout}")
        self.elastic = bool(self.elastic)
        if self.target_workers is not None:
            self.target_workers = int(self.target_workers)
            if self.target_workers < 1:
                raise ValueError(
                    f"target_workers must be >= 1, got {self.target_workers}")
            if self.n_workers > 1 and self.target_workers > self.n_workers:
                raise ValueError(
                    f"target_workers ({self.target_workers}) cannot exceed "
                    f"n_workers ({self.n_workers}): a fleet never grows "
                    f"past the size it started with")
        self.hot_spares = int(self.hot_spares)
        if self.hot_spares < 0:
            raise ValueError(
                f"hot_spares must be >= 0, got {self.hot_spares}")
        if self.heartbeat_interval is not None:
            self.heartbeat_interval = float(self.heartbeat_interval)
            if self.heartbeat_interval <= 0:
                raise ValueError(
                    f"heartbeat_interval must be > 0, "
                    f"got {self.heartbeat_interval}")
        if self.reassignment_mode not in REASSIGNMENT_MODES:
            raise ValueError(
                f"unknown reassignment_mode {self.reassignment_mode!r}; "
                f"choose from {REASSIGNMENT_MODES}")
        if not 0.0 <= self.reassignment_ratio <= 1.0:
            raise ValueError(
                f"reassignment_ratio must be in [0, 1], "
                f"got {self.reassignment_ratio}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.init not in ("k-means++", "random"):
            raise ValueError(f"init must be 'k-means++' or 'random', got {self.init!r}")
