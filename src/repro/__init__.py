"""FT K-Means reproduction.

A high-performance K-means with algorithm-based fault tolerance
(CLUSTER 2024), reproduced end-to-end on a simulated GPU execution model:

* :mod:`repro.core`     -- the FT K-Means algorithm and estimator API
* :mod:`repro.gpusim`   -- GPU execution-model simulator substrate
* :mod:`repro.gemm`     -- tiled SIMT / tensor-core GEMM kernels
* :mod:`repro.abft`     -- checksum encodings, online correction, update guard
* :mod:`repro.codegen`  -- template-based kernel generation + selection
* :mod:`repro.baselines`-- cuML-like, sklearn-like and Wu-ABFT baselines
* :mod:`repro.bench`    -- the harness regenerating every paper figure
* :mod:`repro.data`     -- synthetic workload generators
"""

from repro.core.api import FTKMeans
from repro.core.config import KMeansConfig
from repro.gpusim.device import A100_PCIE_40GB, TESLA_T4, get_device

__version__ = "1.0.0"

__all__ = [
    "FTKMeans",
    "KMeansConfig",
    "A100_PCIE_40GB",
    "TESLA_T4",
    "get_device",
    "__version__",
]
