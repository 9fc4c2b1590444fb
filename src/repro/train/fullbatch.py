"""Full-batch (whole-graph) training — the comparators' batching scheme.

Several Table 7 systems (NeuGraph, Roc, DeepGalois) train *full-batch*:
every epoch performs one forward/backward over the entire graph. The paper
argues for mini-batch training instead because it "converges faster and
generalizes better" (Bottou et al., 2018). This module implements the
full-batch scheme over the same architectures so that claim can be
tested (``bench_ablation_batching.py``): epochs-to-accuracy and
time-to-accuracy for full-batch vs SALIENT mini-batch training.

Implementation: the whole graph is expressed as L identical full-adjacency
MFG layers (every node is both source and destination), so the standard
``forward(x, adjs)`` architectures run unchanged; the loss is masked to
the training nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..datasets.synthetic import Dataset
from ..models.architectures import build_model
from ..nn.optim import Adam
from ..sampling.mfg import Adj
from ..tensor import Tensor, functional as F, no_grad
from .config import ExperimentConfig
from .metrics import accuracy

__all__ = ["FullBatchTrainer"]


@dataclass
class FullBatchEpoch:
    loss: float
    epoch_time: float


class FullBatchTrainer:
    """Whole-graph gradient descent (NeuGraph/Roc-style batching)."""

    def __init__(
        self,
        dataset: Dataset,
        config: ExperimentConfig,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.model = build_model(
            config.model,
            dataset.num_features,
            config.hidden_channels,
            dataset.num_classes,
            num_layers=config.num_layers,
            rng=np.random.default_rng(np.random.SeedSequence([seed, 101])),
        )
        self.optimizer = Adam(
            self.model.parameters(), lr=config.lr, weight_decay=config.weight_decay
        )
        # Precompute the full-graph "MFG": the same dense layer L times, so
        # its aggregation plan is built once (by the first forward) and
        # reused by every layer, epoch and evaluate.
        n = dataset.num_nodes
        full = Adj(edge_index=dataset.graph.edge_index(), e_id=None, size=(n, n))
        self._layers = [full] * config.num_layers
        self._features = dataset.features.astype(np.float32)

    def train_epoch(self) -> FullBatchEpoch:
        import time

        start = time.perf_counter()
        self.model.train()
        self.optimizer.zero_grad()
        out = self.model(Tensor(self._features), self._layers)
        train_nodes = self.dataset.split.train
        loss = F.nll_loss(out[train_nodes], self.dataset.labels[train_nodes])
        loss.backward()
        self.optimizer.step()
        return FullBatchEpoch(loss=loss.item(), epoch_time=time.perf_counter() - start)

    def evaluate(self, split: str = "val") -> float:
        self.model.eval()
        with no_grad():
            out = self.model(Tensor(self._features), self._layers).data
        nodes = getattr(self.dataset.split, split)
        return accuracy(out[nodes], self.dataset.labels[nodes])

    def peak_activation_bytes(self) -> int:
        """Rough lower bound on activation memory: every node's hidden state
        at every layer is live during backward — the memory pressure that
        forces the paper's largest graphs out of full-batch training."""
        n = self.dataset.num_nodes
        per_layer = n * self.config.hidden_channels * 4
        return per_layer * self.config.num_layers + self._features.nbytes
