"""Uplink massive MIMO channel estimation simulator.

Implements GEVD-based low-rank channel covariance estimation, the derived
approximate MMSE channel estimators, classical baselines, and a
Monte-Carlo NMSE experiment harness with a CLI front end.
"""

__version__ = "0.1.0"

from .linalg import GevdResult, NotPositiveDefinite
from .channel import NetworkGeometry, UnsupportedLayout, InvalidSpread
from .airlink import PilotBook
from .covest import LowRankCovEstimate, DegeneratePilotCount
from .estimators import MmseFilter
from .config import SystemConfig, ExperimentConfig, EstimatorSpec, SweepSpec, ConfigInvalid
from .harness import NmseResult, ZeroTraceCovariance

__all__ = [
    "GevdResult",
    "NotPositiveDefinite",
    "NetworkGeometry",
    "UnsupportedLayout",
    "InvalidSpread",
    "PilotBook",
    "LowRankCovEstimate",
    "DegeneratePilotCount",
    "MmseFilter",
    "SystemConfig",
    "ExperimentConfig",
    "EstimatorSpec",
    "SweepSpec",
    "ConfigInvalid",
    "NmseResult",
    "ZeroTraceCovariance",
]
