"""Runtime: queues, pinned buffers, simulated device/streams, the pipeline."""

from .device import Device, DeviceBatch, DeviceTensor, Stream, StreamEvent
from .mp_prepare import MPPrepareStage, WorkerCrashed, WorkerTaskError
from .pinned import PinnedBuffer, PinnedBufferPool, estimate_max_rows
from .pipeline import POLICIES, RuntimeConfig, build_pipeline
from .shm import SharedArena, SharedDataset, SharedSlotPool
from .queues import BoundedOutputQueue, InputQueue, QueueClosed
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
    "Stream",
    "StreamEvent",
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
    "InputQueue",
    "BoundedOutputQueue",
    "QueueClosed",
    "TraceEvent",
    "Tracer",
    "render_timeline",
    "estimate_max_rows",
]
