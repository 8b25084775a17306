"""Evaluation and deployment: KL estimation, NLL/MAPE scoring, rollout."""

from .estimators import (
    ContextDimensionError,
    EstimateReport,
    Predictor,
    RolloutConfig,
    write_rollout_bands,
)
from .kl import DegenerateDistanceError, InsufficientSamplesError, kl_knn
from .metrics import (
    ZeroDenominatorError,
    kde_log_density,
    mape,
    mean_nll,
    per_dimension_nll,
    silverman_bandwidth,
)

__all__ = [
    "ContextDimensionError",
    "DegenerateDistanceError",
    "EstimateReport",
    "InsufficientSamplesError",
    "Predictor",
    "RolloutConfig",
    "ZeroDenominatorError",
    "kde_log_density",
    "kl_knn",
    "mape",
    "mean_nll",
    "per_dimension_nll",
    "silverman_bandwidth",
    "write_rollout_bands",
]
