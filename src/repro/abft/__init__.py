"""Algorithm-based fault tolerance: encodings, detection, online
correction with location encoding, the update stage's checksum guard
(:mod:`repro.abft.sumcheck`, standing in for the paper's DMR: a single
corrupted sum ε is detected whenever ``|ε| > 2·δ1`` with
``δ1 = ThresholdPolicy(float64).delta(√M·Σ_k|S_kj|)``), and the baseline
schemes."""

from repro.abft.corrector import CorrectionKind, CorrectionResult, Corrector
from repro.abft.detector import Detector, Residuals, measure_residuals
from repro.abft.encoding import acc_checksum_triple, checksum_triple, e1, e2
from repro.abft.kosaian import KosaianBlockState, KosaianDetectGemm
from repro.abft.schemes import (
    FTKMEANS,
    KOSAIAN,
    NONE,
    SCHEMES,
    TENSOR_ONLY,
    WU,
    AbftScheme,
    get_scheme,
)
from repro.abft.sumcheck import checksum_protected
from repro.abft.thresholds import ThresholdPolicy, detection_threshold, unit_roundoff
from repro.abft.wu import WuBlockState, WuFtGemm

__all__ = [
    "CorrectionKind",
    "CorrectionResult",
    "Corrector",
    "Detector",
    "Residuals",
    "measure_residuals",
    "checksum_protected",
    "acc_checksum_triple",
    "checksum_triple",
    "e1",
    "e2",
    "KosaianBlockState",
    "KosaianDetectGemm",
    "FTKMEANS",
    "KOSAIAN",
    "NONE",
    "SCHEMES",
    "TENSOR_ONLY",
    "WU",
    "AbftScheme",
    "get_scheme",
    "ThresholdPolicy",
    "detection_threshold",
    "unit_roundoff",
    "WuBlockState",
    "WuFtGemm",
]
