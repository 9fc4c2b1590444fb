"""Training, inference and evaluation drivers."""

from .config import TABLE5_CONFIGS, ExperimentConfig, get_config
from .ddp import DDPTrainer
from .inference import LayerwiseResult, layerwise_full_inference, sampled_inference
from .loop import Trainer, TrainResult, figure1_timelines
from .metrics import (
    DegreeAccuracy,
    accuracy,
    accuracy_by_degree,
    mean_and_std,
)

__all__ = [
    "ExperimentConfig",
    "TABLE5_CONFIGS",
    "get_config",
    "Trainer",
    "TrainResult",
    "figure1_timelines",
    "DDPTrainer",
    "sampled_inference",
    "layerwise_full_inference",
    "LayerwiseResult",
    "accuracy",
    "accuracy_by_degree",
    "DegreeAccuracy",
    "mean_and_std",
]
