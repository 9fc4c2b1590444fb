"""The policy table and the validated runtime config.

The paper's design is *one* pipeline — batch preparation → transfer →
compute (Sections 4.2-4.3, Figure 1(b)) — and a policy only says where the
one prepare stage (sample + slice + plan build, a batch owned end to end by
one worker) runs.  The engine is
:class:`~repro.runtime.stages.StagedPipeline`; this module holds the only
place a policy name turns into a prepare stage, a prefetch depth and a
staging-slot pool (:func:`build_pipeline`), and the only place an
enumerated runtime value is checked (:class:`RuntimeConfig`).  What a
pipeline is built with outlives its runs; what one run does — its fanouts,
seeding and compute name — is set only in its
:class:`~repro.runtime.stages.RunSpec`.

=============  ==========================================  =====  ============
policy         the prepare stage runs                      depth  slot pool
=============  ==========================================  =====  ============
serial         on the caller (double-copy reference slice) 0      none
pipelined      on ``num_workers`` threads                  N      pinned
multiprocess   on ``num_workers`` processes                N      shared (shm)
=============  ==========================================  =====  ============

``serial`` is Listing 1 / Figure 1(a), the Table 1/3 baseline; ``pipelined``
is SALIENT (Figure 1(b)); ``multiprocess`` is Table 2's true multi-core
batch preparation.  Every policy ends in a transfer (when a device is
given) and the compute function run on the caller, records into one
:class:`~repro.runtime.stages.EpochStats` accounting path and seeds batches
by index alone, so per-batch losses are identical for a shared seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..sampling.base import NeighborSamplerBase
from ..sampling.design_space import PyGNeighborSampler
from ..sampling.fast_sampler import FastNeighborSampler
from ..slicing.store import FeatureStore
from ..telemetry import MetricsRegistry
from ..telemetry.tracer import Tracer
from .device import Device
from .mp_prepare import MPPrepareStage
from .pinned import PinnedBufferPool, estimate_max_rows
from .shm import SharedSlotPool
from .stages import PrepareStage, StagedPipeline

__all__ = [
    "POLICIES",
    "INFER_POLICIES",
    "SAMPLERS",
    "FEATURE_TIERS",
    "START_METHODS",
    "RuntimeConfig",
    "build_pipeline",
]

POLICIES = ("serial", "pipelined", "multiprocess")
#: sampled inference runs on the in-process policies only
INFER_POLICIES = POLICIES[:2]
SAMPLERS = {"fast": FastNeighborSampler, "pyg": PyGNeighborSampler}
FEATURE_TIERS = ("ram", "mmap", "mmap-quant")
START_METHODS = ("spawn", "fork")


@dataclass(frozen=True)
class RuntimeConfig:
    """How a :class:`~repro.train.Trainer` runs: every non-object runtime
    keyword it takes, validated once.

    ``__post_init__`` is the single place an enumerated value is checked;
    the constants it checks against also feed the CLI's ``choices=``, and
    :meth:`~repro.train.Trainer.build_report` serialises the instance.
    """

    executor: str = "pipelined"
    sampler: str = "fast"
    num_workers: int = 2
    seed: int = 0
    infer_executor: str = "serial"
    compute: str = "fused"
    mp_start_method: str = "spawn"
    feature_tier: str = "ram"
    slab_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name, allowed in (
            ("executor", POLICIES),
            ("sampler", SAMPLERS),
            ("infer_executor", INFER_POLICIES),
            ("compute", ("fused",)),
            ("mp_start_method", START_METHODS),
            ("feature_tier", FEATURE_TIERS),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown {name} {value!r} (expected one of "
                    f"{', '.join(allowed)})"
                )
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")


def build_pipeline(
    policy: str,
    sampler_factory: Callable[[], NeighborSamplerBase],
    store: FeatureStore,
    *,
    device: Optional[Device] = None,
    infer_fanouts: Optional[Sequence[Optional[int]]] = None,
    num_workers: int = 2,
    max_batch: int = 1024,
    seed: int = 0,
    prefetch_depth: int = 4,
    pinned_slots: Optional[int] = None,
    start_method: str = "spawn",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> StagedPipeline:
    """The pipeline that runs ``policy`` (one of :data:`POLICIES`).

    ``sampler_factory`` makes one sampler per prepare worker; ``store`` is
    sliced by every worker.  With ``device=None`` there is no transfer
    and no pinned pool (host-only inference).  Every policy's prepare stage
    ends by building the batch's aggregation plans, for training and
    inference alike; an inference run names its compute ``infer`` in its
    :class:`~repro.runtime.stages.RunSpec`.

    ``max_batch`` and the sampler's fanouts — or ``infer_fanouts``, the
    fanouts the pipeline's inference runs sample with, where their bound is
    larger — size the staging slots through
    :func:`~repro.runtime.pinned.estimate_max_rows`, a bound no sampled
    batch passes, so every batch fits its slot; ``pinned_slots`` defaults
    to 4, or ``num_workers + prefetch_depth + 2`` shared slots for
    ``multiprocess`` (one per place an envelope can hold one).  The
    ``multiprocess`` policy rebuilds ``type(sampler)(graph, fanouts)``
    inside each worker process, started with ``start_method`` (one of
    :data:`START_METHODS`).  ``policy`` and ``start_method`` are checked
    before anything is allocated.

    The caller owns ``device``; everything else the pipeline was built with
    is released by :meth:`StagedPipeline.close`.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if start_method not in START_METHODS:
        raise ValueError(
            f"unknown start_method {start_method!r} (expected one of "
            f"{', '.join(START_METHODS)})"
        )
    metrics = metrics if metrics is not None else MetricsRegistry()
    sampler = sampler_factory()  # sizing probe; the serial policy's sampler
    max_rows = max(
        estimate_max_rows(fanouts, max_batch, store.num_nodes)
        for fanouts in (sampler.fanouts, infer_fanouts or sampler.fanouts)
    )
    pool_args = dict(
        max_rows=max_rows,
        num_features=store.num_features,
        max_batch=max_batch,
        feature_dtype=store.feature_dtype,
        metrics=metrics,
    )

    depth = 0 if policy == "serial" else prefetch_depth
    pool: Optional[PinnedBufferPool] = None
    if policy == "multiprocess":
        pool = SharedSlotPool(
            num_slots=pinned_slots or num_workers + prefetch_depth + 2, **pool_args
        )
    elif policy != "serial" and device is not None:
        pool = PinnedBufferPool(num_slots=pinned_slots or 4, **pool_args)

    if policy == "serial":
        prepare = PrepareStage(lambda: sampler, store, reference=True)
    elif policy == "pipelined":
        prepare = PrepareStage(
            sampler_factory, store, pinned_pool=pool, workers=num_workers
        )
    else:
        prepare = MPPrepareStage(
            sampler.graph,
            store,
            pool,
            type(sampler),
            sampler.fanouts,
            workers=num_workers,
            start_method=start_method,
        )
    return StagedPipeline(
        prepare,
        device=device,
        prefetch_depth=depth,
        seed=seed,
        tracer=tracer,
        metrics=metrics,
    )
