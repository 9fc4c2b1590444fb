"""Calibrated discrete-event performance model of the paper's testbed.

Reproduces the hardware-scale results (Tables 1-3 & 7, Figures 4-5, and
Figure 6's timing component) that cannot be measured on this machine. See
``calibrate.py`` for the provenance of every constant.
"""

from .calibrate import (
    PAPER_MACHINE,
    PAPER_WORKLOADS,
    SALIENT_SAMPLER_SPEEDUP,
    TABLE1_REFERENCE,
    TABLE2_REFERENCE,
    TABLE3_REFERENCE,
    BatchWorkload,
    MachineSpec,
)
from .cluster import (
    MODEL_PROFILES,
    ModelProfile,
    model_param_bytes,
    ring_allreduce_time,
    scaling_curve,
    simulate_cluster_epoch,
)
from .engine import Interval, Resource
from .pipelines import (
    ABLATION_STEPS,
    CONFIG_PYG,
    CONFIG_SALIENT,
    EpochBreakdown,
    PipelineConfig,
    simulate_epoch,
)
from .systems import COMPARATOR_SYSTEMS, SystemRow, salient_row, systems_table

__all__ = [
    "MachineSpec",
    "BatchWorkload",
    "PAPER_MACHINE",
    "PAPER_WORKLOADS",
    "SALIENT_SAMPLER_SPEEDUP",
    "TABLE1_REFERENCE",
    "TABLE2_REFERENCE",
    "TABLE3_REFERENCE",
    "Resource",
    "Interval",
    "PipelineConfig",
    "EpochBreakdown",
    "simulate_epoch",
    "ABLATION_STEPS",
    "CONFIG_PYG",
    "CONFIG_SALIENT",
    "simulate_cluster_epoch",
    "scaling_curve",
    "ring_allreduce_time",
    "model_param_bytes",
    "MODEL_PROFILES",
    "ModelProfile",
    "SystemRow",
    "COMPARATOR_SYSTEMS",
    "salient_row",
    "systems_table",
]
