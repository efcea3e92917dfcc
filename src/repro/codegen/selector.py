"""Benchmark-driven kernel selection (the right half of Fig. 3).

A :class:`KernelSelector` owns the feasible parameter queue for one
(device, dtype) pair and answers "which kernel should run this shape?"
by ranking the candidates with the timing model.  Selections are cached
per shape and serialise via :mod:`repro.codegen.database`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codegen.bench import rank_candidates
from repro.codegen.compile import feasible_candidates
from repro.codegen.database import load_selection, save_selection
from repro.codegen.space import DEFAULT_BOUNDS, SpaceBounds, enumerate_space
from repro.gemm.tiling import TileConfig
from repro.gpusim.device import DeviceSpec, get_device

__all__ = ["KernelSelector"]


def _shape_key(m: int, n_clusters: int, k_features: int) -> str:
    return f"{m},{n_clusters},{k_features}"


@dataclass
class KernelSelector:
    """Per-(device, dtype) kernel chooser."""

    device: DeviceSpec
    dtype: np.dtype
    candidates: list[TileConfig]
    _cache: dict[str, TileConfig] = field(default_factory=dict)

    # -- construction -----------------------------------------------------
    @classmethod
    def for_device(cls, device, dtype,
                   bounds: SpaceBounds = DEFAULT_BOUNDS) -> "KernelSelector":
        """Enumerate the rule-respecting space and keep what can launch."""
        device = get_device(device)
        dtype = np.dtype(dtype)
        space = enumerate_space(dtype, bounds)
        queue = feasible_candidates(space, dtype, device)
        return cls(device=device, dtype=dtype, candidates=queue)

    # -- selection ----------------------------------------------------------
    def best_tile(self, m: int, n_clusters: int, k_features: int) -> TileConfig:
        """Winner for one problem shape (cached)."""
        key = _shape_key(m, n_clusters, k_features)
        if key not in self._cache:
            scores = rank_candidates(self.device, self.candidates, m,
                                     n_clusters, k_features, self.dtype, top=1)
            if not scores:
                raise RuntimeError(
                    f"no feasible kernel for shape {key} on {self.device.name}")
            self._cache[key] = scores[0].tile
        return self._cache[key]

    def best_score(self, m: int, n_clusters: int, k_features: int):
        """(tile, modelled GFLOPS) for the winner at one shape."""
        from repro.codegen.bench import score_candidate
        from repro.gpusim.timing import TimingModel

        tile = self.best_tile(m, n_clusters, k_features)
        return score_candidate(TimingModel(self.device), tile, m, n_clusters,
                               k_features, self.dtype)

    def selected_param_ids(self) -> list[int]:
        """Distinct parameter ids chosen so far (paper: only 7 FP32 / 4
        FP64 of the full queue ever win)."""
        return sorted({t.param_id for t in self._cache.values()})

    # -- persistence ---------------------------------------------------------
    def save(self, path) -> None:
        entries = {key: t.param_id for key, t in self._cache.items()}
        tiles = {t.param_id: t for t in self._cache.values()}
        save_selection(path, device_name=self.device.name, dtype=self.dtype,
                       entries=entries, tiles=tiles)

    @classmethod
    def load(cls, path, device=None) -> "KernelSelector":
        dev_name, dtype, entries, tiles = load_selection(path)
        device = get_device(device) if device is not None else get_device(
            "a100" if "A100" in dev_name else "t4")
        sel = cls(device=device, dtype=np.dtype(dtype),
                  candidates=sorted(tiles.values(), key=lambda t: t.param_id))
        sel._cache = {key: tiles[pid] for key, pid in entries.items()}
        return sel
