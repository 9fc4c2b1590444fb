"""End-to-end training driver wiring datasets, samplers, pipelines, models.

``Trainer`` is the single-GPU workflow of Listing 1 / Figure 1 under any
execution policy; ``repro.train.ddp`` scales it to multiple simulated GPUs.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from ..datasets.synthetic import Dataset
from ..models.architectures import build_model
from ..nn.module import Module
from ..nn.optim import Adam, Optimizer
from ..runtime.device import Device, DeviceBatch
from ..runtime.pipeline import SAMPLERS, RuntimeConfig, build_pipeline
from ..runtime.stages import EpochStats
from ..telemetry.monitor import ProbeSampler
from ..telemetry.tracer import Tracer
from ..sampling.base import BatchIterator
from ..slicing.memmap_store import MemmapFeatureStore
from ..slicing.store import FeatureStore
from ..telemetry import Counter, MetricsRegistry, RunReport
from ..tensor import CoreSplitter, Tensor, functional as F, split_scope
from ..tensor.plan import csr_tools
from .config import ExperimentConfig, get_config
from .inference import sampled_inference
from .metrics import accuracy

# The CSR kernels import scipy at first use, so that prepare worker
# processes (which run none) never load it.  A process that trains loads it
# here, at import, rather than inside its first training step.
csr_tools()

__all__ = ["Trainer", "TrainResult", "figure1_timelines"]


@dataclass
class TrainResult:
    """History of one training run."""

    epoch_stats: list[EpochStats] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(s.epoch_time for s in self.epoch_stats)

    def final_loss(self) -> float:
        losses = self.epoch_stats[-1].losses if self.epoch_stats else []
        return float(np.mean(losses)) if losses else float("nan")


class Trainer:
    """Mini-batch GNN training with neighborhood sampling.

    Parameters
    ----------
    dataset:
        A :class:`repro.datasets.Dataset`.
    config:
        Hyperparameters (Table 5 row).
    executor:
        Execution policy (see :func:`repro.runtime.pipeline.build_pipeline`):
        ``"serial"`` — the baseline PyG workflow, batches prepared on the
        caller; ``"pipelined"`` — SALIENT, prepared on ``num_workers``
        threads; ``"multiprocess"`` — prepared on ``num_workers`` worker
        *processes* over shared memory (true multi-core batch prep,
        Section 4.2 / Table 2).
    sampler:
        ``"fast"`` (SALIENT's sampler) or ``"pyg"`` (the reference one).
    infer_executor:
        Policy for :meth:`predict`/:meth:`evaluate` (Section 5.4's
        pipelined inference when set to ``"pipelined"``);
        assignable between calls.
    compute:
        Only ``"fused"`` (there is one kernel generation); kept because
        ``benchmarks/e2e`` passes it.
    probes:
        A :class:`~repro.telemetry.monitor.ProbeSampler`, attached to
        :attr:`metrics`: while it runs, it samples every counter and gauge
        the run records.
    feature_tier:
        ``"ram"`` (default) — the in-RAM fp16 :class:`FeatureStore`;
        ``"mmap"`` — features live in an on-disk fp16 slab opened as a
        :class:`~repro.slicing.memmap_store.MemmapFeatureStore` —
        training results are byte-identical to ``"ram"`` per seed;
        ``"mmap-quant"`` — the same over uint8 per-channel codes, sliced
        and transferred as codes and dequantized on transfer (bounded
        loss delta).
    slab_dir:
        Directory holding (or receiving) the feature slab for the mmap
        tiers.  Defaults to a temporary directory removed on
        :meth:`shutdown`; pass an explicit path to reuse slabs across
        runs.

    The non-object keywords are frozen into ``self.runtime``, a
    :class:`~repro.runtime.pipeline.RuntimeConfig` — the one place their
    enumerated values are validated.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: ExperimentConfig,
        executor: str = "pipelined",
        sampler: str = "fast",
        device: Optional[Device] = None,
        num_workers: int = 2,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        infer_executor: str = "serial",
        compute: str = "fused",
        probes: Optional[ProbeSampler] = None,
        mp_start_method: str = "spawn",
        feature_tier: str = "ram",
        slab_dir=None,
    ) -> None:
        self.runtime = RuntimeConfig(
            executor=executor,
            sampler=sampler,
            num_workers=num_workers,
            seed=seed,
            infer_executor=infer_executor,
            compute=compute,
            mp_start_method=mp_start_method,
            feature_tier=feature_tier,
            slab_dir=None if slab_dir is None else os.fspath(slab_dir),
        )
        self.dataset = dataset
        self.config = config
        self.seed = seed
        self.device = device or Device()
        self.tracer = tracer or Tracer(enabled=False)
        self.probes = probes if probes is not None and probes.enabled else None
        self._slab_tmpdir = None
        if feature_tier == "ram":
            self.store = FeatureStore(dataset.features, dataset.labels)
        else:
            self.store = self._open_slab_store(feature_tier, slab_dir)

        model_rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        self.model: Module = build_model(
            config.model,
            dataset.num_features,
            config.hidden_channels,
            dataset.num_classes,
            num_layers=config.num_layers,
            rng=model_rng,
        )
        self.optimizer: Optimizer = Adam(
            self.model.parameters(), lr=config.lr, weight_decay=config.weight_decay
        )

        sampler_cls = SAMPLERS[sampler]
        fanouts = list(config.train_fanouts)
        self._pipeline = build_pipeline(
            executor,
            lambda: sampler_cls(dataset.graph, fanouts),
            self.store,
            device=self.device,
            # predict runs on this pipeline too: slots hold either batch
            infer_fanouts=list(config.infer_fanouts),
            num_workers=num_workers,
            max_batch=config.batch_size,
            seed=seed,
            start_method=mp_start_method,
            tracer=self.tracer,
        )
        # Splits a step's gemms and CSR aggregations across this process's
        # CPUs (bit-identical; helper threads start at the first split).
        # The first splitter of a process also sets its allocator to keep
        # freed memory, so each step reuses the last one's heap.
        self._splitter = CoreSplitter(metrics=self.metrics)
        # Slab stores report their mmap wait into the pipeline's registry
        # (so EpochStats attribution sees it).
        self.store.attach_metrics(self.metrics)
        if self.probes is not None:
            # The monitor samples every counter and gauge of that registry.
            self.probes.attach(self.metrics)

    @property
    def infer_executor(self) -> str:
        return self.runtime.infer_executor

    @infer_executor.setter
    def infer_executor(self, policy: str) -> None:
        self.runtime = replace(self.runtime, infer_executor=policy)

    def _open_slab_store(self, feature_tier, slab_dir) -> MemmapFeatureStore:
        """Write/reuse the dataset slab and open it."""
        import tempfile

        from ..datasets.slab import dataset_slab_path, write_dataset_slab

        if slab_dir is None:
            self._slab_tmpdir = tempfile.TemporaryDirectory(prefix="repro-slab-")
            slab_dir = self._slab_tmpdir.name
        encoding = "uint8" if feature_tier == "mmap-quant" else "raw"
        slab_path = dataset_slab_path(slab_dir, self.dataset.name, encoding)
        if not slab_path.exists():
            write_dataset_slab(self.dataset, slab_path, encoding=encoding)
        store = MemmapFeatureStore(slab_path)
        # Slab paths key on dataset *name*; a reused slab_dir holding the
        # same dataset at a different scale would silently train on stale
        # features. Shape mismatch is the cheap tell.
        if store.num_nodes != self.dataset.num_nodes:
            raise ValueError(
                f"slab {slab_path} holds {store.num_nodes} nodes but dataset "
                f"{self.dataset.name!r} has {self.dataset.num_nodes}; "
                "point slab_dir at a fresh directory"
            )
        return store

    # ------------------------------------------------------------------
    def train_step(self, batch: DeviceBatch) -> float:
        """One optimizer step on a transferred batch; returns its loss."""
        self.model.train()
        self.optimizer.zero_grad()
        x = Tensor(batch.xs.data)
        # Forward/backward split their large kernels across cores.
        with split_scope(self._splitter):
            out = self.model(x, batch.mfg.adjs)
            loss = F.nll_loss(out, batch.ys.data)
            loss.backward()
        self.optimizer.step()
        return loss.item()

    def epoch_batches(self, epoch: int) -> list[np.ndarray]:
        """Shuffled train-set mini-batches for one epoch (deterministic)."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7, epoch]))
        return list(
            BatchIterator(
                self.dataset.split.train,
                self.config.batch_size,
                shuffle=True,
                rng=rng,
            )
        )

    def train_batches(self, batches: Sequence[np.ndarray]) -> EpochStats:
        """Run ``batches`` (seed-node arrays) through the trainer's pipeline,
        one :meth:`train_step` each; batch ``i`` is seeded ``[seed, i]``."""
        return self._pipeline.run_epoch(batches, self.train_step)

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        return self.train_batches(self.epoch_batches(epoch))

    @property
    def metrics(self) -> MetricsRegistry:
        """The pipeline's cumulative metric registry (all epochs merged)."""
        return self._pipeline.ctx.metrics

    @property
    def counters(self) -> SimpleNamespace:
        """Read-only view for ``benchmarks/e2e``: ``.snapshot()`` returns
        ``{name: int}`` of :attr:`metrics`' unlabelled event counters."""

        def snapshot() -> dict[str, int]:
            return {
                m.name: m.value
                for m in self.metrics.collect()
                if isinstance(m, Counter) and not m.labels and isinstance(m.value, int)
            }

        return SimpleNamespace(snapshot=snapshot)

    def build_report(self, result: TrainResult, command: str = "train") -> RunReport:
        """A :class:`RunReport` document for a finished :meth:`fit` run."""
        report = RunReport(
            command=command,
            config={**asdict(self.config), **asdict(self.runtime)},
        )
        for epoch, stats in enumerate(result.epoch_stats):
            report.add_epoch(stats, epoch)
        if result.val_accuracy:
            report.add_evaluation("val", result.val_accuracy[-1])
        report.attach_metrics(self.metrics)
        report.attach_probes(self.probes)
        return report

    def predict(
        self,
        nodes: np.ndarray,
        fanouts: Optional[Sequence[Optional[int]]] = None,
        seed: int = 1234,
    ) -> np.ndarray:
        """Sampled-inference log-probabilities for ``nodes``: a run on the
        trainer's own pipeline (see :func:`sampled_inference`), so its
        samplers, staging slots, registry and tracer are training's and it
        builds none.  ``infer_executor="serial"`` runs it host-only on the
        caller; ``"pipelined"`` on the training workers (on the caller,
        with the transfer, for a ``serial`` trainer)."""
        fanouts = list(fanouts) if fanouts is not None else list(self.config.infer_fanouts)
        with split_scope(self._splitter):
            return sampled_inference(
                self.model,
                self.store,  # inference slices through the trainer's own tier
                self.dataset.graph,
                nodes,
                fanouts,
                batch_size=self.config.batch_size,
                seed=seed,
                executor=self.runtime.infer_executor,
                pipeline=self._pipeline,
            )

    def evaluate(
        self,
        split: str = "val",
        fanouts: Optional[Sequence[Optional[int]]] = None,
        seed: int = 1234,
    ) -> float:
        nodes = getattr(self.dataset.split, split)
        log_probs = self.predict(nodes, fanouts=fanouts, seed=seed)
        return accuracy(log_probs, self.dataset.labels[nodes])

    def fit(
        self,
        epochs: Optional[int] = None,
        evaluate_every: int = 0,
        early_stopping_patience: int = 0,
    ) -> TrainResult:
        """Train for up to ``epochs`` epochs.

        Parameters
        ----------
        evaluate_every:
            Evaluate validation accuracy every N epochs (0 disables).
        early_stopping_patience:
            Stop once validation accuracy has not improved for this many
            consecutive evaluations (requires ``evaluate_every > 0``); the
            best-performing parameters are restored before returning.
        """
        if early_stopping_patience and not evaluate_every:
            raise ValueError("early stopping requires evaluate_every > 0")
        epochs = epochs if epochs is not None else self.config.epochs
        result = TrainResult()
        best_accuracy = -1.0
        best_state: Optional[dict] = None
        stale = 0
        for epoch in range(epochs):
            result.epoch_stats.append(self.train_epoch(epoch))
            if evaluate_every and (epoch + 1) % evaluate_every == 0:
                acc = self.evaluate("val")
                result.val_accuracy.append(acc)
                if early_stopping_patience:
                    if acc > best_accuracy:
                        best_accuracy = acc
                        best_state = self.model.state_dict()
                        stale = 0
                    else:
                        stale += 1
                        if stale >= early_stopping_patience:
                            break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return result

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Persist model parameters/buffers and optimizer state to ``path``.

        Stored as a compressed ``.npz``; keys are the model's dotted state
        names plus ``__optimizer__/...`` entries.
        """
        payload: dict = {f"model/{k}": v for k, v in self.model.state_dict().items()}
        opt_state = self.optimizer.state_dict()
        payload["optimizer/lr"] = np.asarray(opt_state["lr"])
        if "step" in opt_state:  # Adam
            payload["optimizer/step"] = np.asarray(opt_state["step"])
            for i, (m, v) in enumerate(zip(opt_state["m"], opt_state["v"])):
                if m is not None:
                    payload[f"optimizer/m/{i}"] = m
                    payload[f"optimizer/v/{i}"] = v
        np.savez_compressed(path, **payload)

    def load_checkpoint(self, path) -> None:
        """Restore model and optimizer state saved by :meth:`save_checkpoint`."""
        archive = np.load(path)
        model_state = {
            key[len("model/") :]: archive[key]
            for key in archive.files
            if key.startswith("model/")
        }
        self.model.load_state_dict(model_state)
        if "optimizer/step" in archive.files:
            n_params = len(self.optimizer.params)
            m = [None] * n_params
            v = [None] * n_params
            for i in range(n_params):
                if f"optimizer/m/{i}" in archive.files:
                    m[i] = archive[f"optimizer/m/{i}"]
                    v[i] = archive[f"optimizer/v/{i}"]
            self.optimizer.load_state_dict(
                {
                    "lr": float(archive["optimizer/lr"]),
                    "step": int(archive["optimizer/step"]),
                    "m": m,
                    "v": v,
                }
            )
        else:
            self.optimizer.load_state_dict({"lr": float(archive["optimizer/lr"])})

    def shutdown(self) -> None:
        self._pipeline.close()  # multiprocess: stop workers, free shm segments
        self._splitter.close()  # join the compute helper threads
        self.device.shutdown()
        if self._slab_tmpdir is not None:  # trainer-owned slab scratch dir
            self._slab_tmpdir.cleanup()
            self._slab_tmpdir = None


def figure1_timelines(dataset: Dataset, num_batches: int = 6):
    """Figure 1: the same few mini-batches traced under (a) the standard
    workflow — serial policy, PyG-style sampler, the baseline's per-tensor
    round trips — and (b) SALIENT — prepare threads, fast sampler, transfers
    on their own stream.  Returns ``[(title, tracer, stats), ...]``; render a
    tracer with :func:`repro.telemetry.render_timeline`.
    """
    train = dataset.split.train
    size = min(192, len(train))
    rng = np.random.default_rng(1)
    batches = [rng.choice(train, size=size, replace=False) for _ in range(num_batches)]
    config = replace(get_config(dataset.name, "sage"), batch_size=size)
    dma_bandwidth = 25e6  # scaled to the stand-in batch sizes
    runs = []
    for title, executor, sampler, roundtrip in (
        ("(a) standard PyTorch workflow", "serial", "pyg", 5e-4),
        ("(b) SALIENT", "pipelined", "fast", 0.0),
    ):
        tracer = Tracer(enabled=False)
        trainer = Trainer(
            dataset,
            config,
            executor=executor,
            sampler=sampler,
            device=Device(dma_bandwidth, roundtrip_latency=roundtrip),
            tracer=tracer,
        )
        try:
            # Untraced warm-up pass: a fresh process computes several times
            # slower for its first second, which would pad (a)'s GPU lane.
            trainer.train_batches(batches)
            tracer.enabled = True
            runs.append((title, tracer, trainer.train_batches(batches)))
        finally:
            trainer.shutdown()
    return runs
