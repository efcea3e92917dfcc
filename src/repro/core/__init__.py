"""The paper's primary contribution: FT K-Means (step-wise optimised
K-means with fused warp-level ABFT)."""

from repro.core.accumulate import (
    StreamedAccumulator,
    accumulate_oneshot,
    accumulate_streamed,
)
from repro.core.api import FTKMeans
from repro.core.assignment import AssignmentKernelBase, AssignmentResult
from repro.core.broadcast import V3BroadcastAssignment
from repro.core.config import MODES, VARIANT_NAMES, KMeansConfig
from repro.core.convergence import ConvergenceMonitor, EwaInertiaMonitor
from repro.core.engine import (
    BlockMap,
    EngineStats,
    FastPathEngine,
    FitCache,
    unchunked_assign,
)
from repro.core.ft_kmeans import FtAssignment, FtBlockState, FtTensorOpGemm
from repro.core.fused import V2FusedAssignment
from repro.core.gemm_kmeans import V1GemmAssignment, default_simt_tile
from repro.core.initializers import init_kmeans_plusplus, init_random, initialize
from repro.core.naive import NaiveAssignment
from repro.core.tensorop import TensorOpAssignment, default_tensorop_tile
from repro.core.update import UpdateResult, UpdateStage
from repro.core.validation import validate_centroids, validate_data
from repro.core.variants import VARIANTS, build_assignment

__all__ = [
    "FTKMeans",
    "AssignmentKernelBase",
    "AssignmentResult",
    "StreamedAccumulator",
    "accumulate_oneshot",
    "accumulate_streamed",
    "V3BroadcastAssignment",
    "MODES",
    "VARIANT_NAMES",
    "KMeansConfig",
    "ConvergenceMonitor",
    "EwaInertiaMonitor",
    "BlockMap",
    "EngineStats",
    "FastPathEngine",
    "FitCache",
    "unchunked_assign",
    "FtAssignment",
    "FtBlockState",
    "FtTensorOpGemm",
    "V2FusedAssignment",
    "V1GemmAssignment",
    "default_simt_tile",
    "init_kmeans_plusplus",
    "init_random",
    "initialize",
    "NaiveAssignment",
    "TensorOpAssignment",
    "default_tensorop_tile",
    "UpdateResult",
    "UpdateStage",
    "validate_centroids",
    "validate_data",
    "VARIANTS",
    "build_assignment",
]
