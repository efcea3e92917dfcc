"""Assignment-variant registry.

Maps the names of :data:`repro.core.config.VARIANT_NAMES` to their kernel
classes and builds configured instances for the estimator.
"""

from __future__ import annotations

import numpy as np

from repro.core.broadcast import V3BroadcastAssignment
from repro.core.config import KMeansConfig
from repro.core.ft_kmeans import FtAssignment
from repro.core.fused import V2FusedAssignment
from repro.core.gemm_kmeans import V1GemmAssignment
from repro.core.naive import NaiveAssignment
from repro.core.tensorop import TensorOpAssignment
from repro.gemm.tiling import TileConfig
from repro.gpusim.faults import FaultInjector, NullInjector

__all__ = ["VARIANTS", "build_assignment"]

VARIANTS = {
    "naive": NaiveAssignment,
    "v1": V1GemmAssignment,
    "v2": V2FusedAssignment,
    "v3": V3BroadcastAssignment,
    "tensorop": TensorOpAssignment,
    "ft": FtAssignment,
}


def _resolve_tile(cfg: KMeansConfig, n_samples: int, n_features: int) -> TileConfig | None:
    """Resolve cfg.tile: None (variant default), 'auto' (selector) or an
    explicit TileConfig."""
    if cfg.tile is None:
        return None
    if isinstance(cfg.tile, TileConfig):
        return cfg.tile
    if cfg.tile == "auto":
        # imported lazily: codegen sits above core in the layering only
        # for this convenience feature
        from repro.codegen.selector import KernelSelector

        selector = KernelSelector.for_device(cfg.device, cfg.dtype)
        return selector.best_tile(n_samples, cfg.n_clusters, n_features)
    raise ValueError(f"tile must be None, 'auto' or TileConfig, got {cfg.tile!r}")


def build_assignment(cfg: KMeansConfig, n_samples: int, n_features: int,
                     rng: np.random.Generator):
    """Instantiate the configured assignment kernel (plus its injector)."""
    cls = VARIANTS[cfg.variant]
    injector = (FaultInjector(rng, cfg.p_inject, cfg.dtype)
                if cfg.p_inject > 0 else NullInjector())
    tile = _resolve_tile(cfg, n_samples, n_features)
    kwargs: dict = dict(mode=cfg.mode, injector=injector,
                        chunk_bytes=cfg.chunk_bytes, prune=cfg.prune)
    if cfg.variant in ("v1", "v2", "v3"):
        kwargs["tile"] = tile
    elif cfg.variant == "tensorop":
        kwargs.update(tile=tile, use_tf32=cfg.use_tf32)
    elif cfg.variant == "ft":
        kwargs.update(tile=tile, use_tf32=cfg.use_tf32, scheme=cfg.abft)
    return cls(cfg.device, cfg.dtype, **kwargs)
