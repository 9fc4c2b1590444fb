"""Runtime: pinned buffers, the simulated device and its transfer stream,
the pipeline."""

from .device import Device, DeviceBatch, DeviceTensor
from .mp_prepare import MPPrepareStage, WorkerCrashed, WorkerTaskError
from .pinned import PinnedBuffer, PinnedBufferPool, estimate_max_rows
from .pipeline import POLICIES, RuntimeConfig, build_pipeline
from .shm import SharedArena, SharedDataset, SharedSlotPool
from .stages import (
    Envelope,
    EpochStats,
    PrepareStage,
    StagedPipeline,
    StageError,
)
from ..telemetry.tracer import TraceEvent, Tracer, render_timeline

__all__ = [
    "Device",
    "DeviceBatch",
    "DeviceTensor",
    "PinnedBuffer",
    "PinnedBufferPool",
    "EpochStats",
    "POLICIES",
    "RuntimeConfig",
    "build_pipeline",
    "MPPrepareStage",
    "WorkerCrashed",
    "WorkerTaskError",
    "SharedArena",
    "SharedDataset",
    "SharedSlotPool",
    "TraceEvent",
    "Tracer",
    "render_timeline",
    "estimate_max_rows",
]
