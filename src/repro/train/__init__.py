"""Training, inference and evaluation drivers."""

from .config import TABLE5_CONFIGS, ExperimentConfig, get_config
from .ddp import DDPTrainer, allreduce_seconds
from .inference import LayerwiseResult, layerwise_full_inference, sampled_inference
from .loop import Trainer, TrainResult
from .metrics import (
    DegreeAccuracy,
    accuracy,
    accuracy_by_degree,
    confusion_matrix,
    macro_f1,
    mean_and_std,
)

__all__ = [
    "ExperimentConfig",
    "TABLE5_CONFIGS",
    "get_config",
    "Trainer",
    "TrainResult",
    "DDPTrainer",
    "allreduce_seconds",
    "sampled_inference",
    "layerwise_full_inference",
    "LayerwiseResult",
    "accuracy",
    "accuracy_by_degree",
    "DegreeAccuracy",
    "confusion_matrix",
    "macro_f1",
    "mean_and_std",
]
