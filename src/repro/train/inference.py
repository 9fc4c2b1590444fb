"""Inference paths: mini-batch sampled inference vs layer-wise full inference.

Section 5 argues for running inference with neighborhood sampling — the
same code path as training — instead of the conventional layer-wise
full-neighborhood computation. Both are implemented here so Table 6 and
Figure 3 can compare them:

- :func:`sampled_inference` — mini-batch inference through a sampler; this
  is *one-shot* sampling (no averaging), exactly the regime the paper
  studies.
- :func:`layerwise_full_inference` — evaluates the network layer by layer
  over full neighborhoods, materializing every layer's representations for
  all nodes in host memory. Also reports that memory footprint, the cost
  the paper's Section 5 highlights (dense architectures like SAGE-RI must
  keep *all* layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..models.architectures import GAT, GIN, MLP, SAGERI, GraphSAGE, _SampledGNN
from ..nn.module import Module
from ..runtime.device import DeviceBatch
from ..runtime.pipeline import RuntimeConfig, build_pipeline
from ..runtime.stages import PrepareStage, RunSpec, StagedPipeline
from ..sampling.base import BatchIterator
from ..sampling.fast_sampler import FastNeighborSampler
from ..slicing.store import FeatureStore
from ..tensor import Tensor, functional as F, no_grad

__all__ = ["sampled_inference", "layerwise_full_inference", "LayerwiseResult"]


def sampled_inference(
    model: Module,
    features: np.ndarray,
    graph: CSRGraph,
    nodes: np.ndarray,
    fanouts: Sequence[Optional[int]],
    batch_size: int = 1024,
    seed: int = 0,
    executor: str = "serial",
    pipeline: Optional[StagedPipeline] = None,
) -> np.ndarray:
    """Predict log-probabilities for ``nodes`` with one-shot sampling.

    Reuses the training code path (model.forward over sampled MFGs), the
    simplification benefit Section 5 emphasizes — and, like training, it
    is a run on a staged pipeline: ``pipeline`` when given (a
    ``Trainer``'s or a ``DDPTrainer`` rank's, whose workers, samplers,
    staging slots, registry and tracer its epochs use too), else a
    host-only one :func:`~repro.runtime.pipeline.build_pipeline` makes for
    the ``executor`` policy and closes on return:

    - ``"serial"`` — every step on the caller with the stage's caller-side
      sampler, host-only (the conventional inference loop);
    - ``"pipelined"`` — prepare on the pipeline's workers with bounded
      prefetch, Section 5.4's pipelined inference; batches are transferred
      to the pipeline's device, if any, and a batch that could outgrow the
      pipeline's staging slots runs on the caller instead.

    With ``pipeline`` given, ``features`` must be its store.
    Results are byte-identical across policies: batch seeds depend only
    on the batch's node offset (``[seed, cursor]``) and completed batches
    are delivered in index order.
    """
    RuntimeConfig(infer_executor=executor)  # the one validation seam
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        raise ValueError(
            "sampled_inference needs at least one node; got an empty node set"
        )
    model.eval()
    if isinstance(features, FeatureStore):
        # Already a store (a Trainer's, on any tier): use it directly so
        # inference slices through the same store as training.
        store = features
    else:
        # half_precision=None: wrap the caller's array without changing
        # dtype or values; labels are a placeholder (inference needs none).
        store = FeatureStore(features, half_precision=None)
    fanouts = tuple(fanouts)

    def infer_fn(payload) -> np.ndarray:
        if isinstance(payload, DeviceBatch):
            xs = payload.xs.data  # decoded by the transfer
        else:
            xs = payload.store.decode(payload.xs)  # host-only
        return model(Tensor(xs), payload.mfg.adjs).data

    out: Optional[np.ndarray] = None

    def on_result(env) -> None:
        nonlocal out
        log_probs = env.output
        if out is None:
            out = np.empty((len(nodes), log_probs.shape[1]), dtype=np.float32)
        start = env.index * batch_size
        out[start : start + len(env.nodes)] = log_probs

    owned = pipeline is None
    if owned:
        pipeline = build_pipeline(
            executor,
            lambda: FastNeighborSampler(graph, list(fanouts)),
            store,
            max_batch=batch_size,
        )
    elif store is not pipeline.prepare_stage.store:
        raise ValueError("features must be the pipeline's store")
    spec = RunSpec(
        fanouts=fanouts,
        # The batch's node offset (not its index) keys the RNG stream,
        # preserving the historical cursor-based seeding.
        rng_entries=lambda index: [seed, index * batch_size],
        compute_name="infer",
        on_caller=executor == "serial" or not pipeline.slots_fit(fanouts, batch_size),
    )
    batches = list(BatchIterator(nodes, batch_size, shuffle=False))
    try:
        with no_grad():
            pipeline.run_epoch(batches, infer_fn, on_result=on_result, spec=spec)
    finally:
        if owned:
            pipeline.close()
    assert out is not None and out.shape[0] == len(nodes)
    return out


@dataclass
class LayerwiseResult:
    """Full-neighborhood inference output plus its memory footprint."""

    log_probs: np.ndarray  # (N, C) for all nodes
    peak_host_bytes: int  # bytes of simultaneously live layer activations

    def select(self, nodes: np.ndarray) -> np.ndarray:
        return self.log_probs[np.asarray(nodes, dtype=np.int64)]


def _propagate_full(
    apply_layer,
    h_in: np.ndarray,
    graph: CSRGraph,
    batch_size: int,
) -> np.ndarray:
    """Apply one conv over full neighborhoods for every node, batched.

    The single-hop full-fanout sampler produces exact (unsampled) bipartite
    blocks, so this is the conventional layer-wise inference kernel.  Runs
    on the depth-0 staged pipeline like every other execution path (full
    fanout draws nothing from the RNG, so seeding is irrelevant here).
    """
    store = FeatureStore(h_in, half_precision=None)
    h_out: Optional[np.ndarray] = None

    def layer_fn(sliced) -> np.ndarray:
        adj = sliced.mfg.adjs[0]
        x_src = Tensor(sliced.store.decode(sliced.xs))
        x_dst = x_src[: adj.size[1]]
        return apply_layer((x_src, x_dst), adj).data

    def on_result(env) -> None:
        nonlocal h_out
        out = env.output
        if h_out is None:
            h_out = np.empty((graph.num_nodes, out.shape[1]), dtype=np.float32)
        h_out[env.nodes] = out

    pipeline = StagedPipeline(
        PrepareStage(lambda: FastNeighborSampler(graph, [None]), store)
    )
    batches = list(
        BatchIterator(np.arange(graph.num_nodes), batch_size, shuffle=False)
    )
    pipeline.run_epoch(
        batches, layer_fn, on_result=on_result, spec=RunSpec(compute_name="infer")
    )
    assert h_out is not None
    return h_out


def layerwise_full_inference(
    model: Module,
    features: np.ndarray,
    graph: CSRGraph,
    batch_size: int = 4096,
) -> LayerwiseResult:
    """Full-neighborhood, layer-by-layer inference for every node.

    Dispatches on architecture: plain stacks (SAGE, GAT) keep two live
    layer buffers; GIN adds its prediction head; SAGE-RI's dense
    (Inception) connections force *all* layer outputs to stay resident,
    multiplying host memory — the trade-off Section 5 calls out.
    """
    model.eval()
    with no_grad():
        if isinstance(model, (GraphSAGE, GAT)):
            return _layerwise_stack(model, features, graph, batch_size)
        if isinstance(model, GIN):
            return _layerwise_gin(model, features, graph, batch_size)
        if isinstance(model, SAGERI):
            return _layerwise_sage_ri(model, features, graph, batch_size)
        if isinstance(model, MLP):
            x = Tensor(features.astype(np.float32))
            log_probs = model(x, []).data
            return LayerwiseResult(log_probs, peak_host_bytes=log_probs.nbytes)
    raise TypeError(f"layerwise inference not implemented for {type(model).__name__}")


def _layerwise_stack(
    model: _SampledGNN, features: np.ndarray, graph: CSRGraph, batch_size: int
) -> LayerwiseResult:
    h = features
    peak = 0
    for i in range(model.num_layers):
        last = i == model.num_layers - 1

        def apply_layer(x_pair, edge_index, _conv=model.convs[i], _last=last):
            out = _conv(x_pair, edge_index)
            return out if _last else F.relu(out)

        h_next = _propagate_full(apply_layer, h, graph, batch_size)
        peak = max(peak, h.nbytes + h_next.nbytes)
        h = h_next
    log_probs = F.log_softmax(Tensor(h), axis=-1).data
    return LayerwiseResult(log_probs, peak_host_bytes=peak)


def _layerwise_gin(
    model: GIN, features: np.ndarray, graph: CSRGraph, batch_size: int
) -> LayerwiseResult:
    h = features
    peak = 0
    for i in range(model.num_layers):
        def apply_layer(x_pair, edge_index, _conv=model.convs[i]):
            return _conv(x_pair, edge_index)

        h_next = _propagate_full(apply_layer, h, graph, batch_size)
        peak = max(peak, h.nbytes + h_next.nbytes)
        h = h_next
    x = model.lin2(model.lin1(Tensor(h)).relu())
    log_probs = F.log_softmax(x, axis=-1).data
    return LayerwiseResult(log_probs, peak_host_bytes=peak)


def _layerwise_sage_ri(
    model: SAGERI, features: np.ndarray, graph: CSRGraph, batch_size: int
) -> LayerwiseResult:
    x = features.astype(np.float32)
    collect: list[np.ndarray] = [x]  # dense connections: all layers stay live
    h = x
    for i in range(model.num_layers):
        def apply_layer(x_pair, edge_index, _i=i):
            out = model.convs[_i](x_pair, edge_index)
            out = model.bns[_i](out)
            return F.leaky_relu(out)

        h_next = _propagate_full(apply_layer, h, graph, batch_size)
        collect.append(h_next)
        # Residual: x_{i+1} = h_i + res(x_i); in full inference the target
        # set is every node, so the residual applies row-wise globally.
        res = model.res_linears[i](Tensor(h)).data
        h = h_next + res
    peak = sum(arr.nbytes for arr in collect) + h.nbytes
    concat = np.concatenate(collect, axis=1)
    log_probs = F.log_softmax(model.mlp(Tensor(concat)), axis=-1).data
    return LayerwiseResult(log_probs, peak_host_bytes=peak)
