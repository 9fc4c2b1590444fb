"""Tier-1 reference contract: the one compute path vs the slow reference.

Every conv aggregates through an :class:`AggregationPlan` and every
``Linear`` is one fused tape node; nothing selects another formulation at
run time.  The reference they are held to is written *here*, from the
planless functional ops (``F.gather_rows`` + ``F.segment_*`` with no
``plan``) and the explicit ``x @ w.T + b`` chain.  Conv by conv (forward,
input gradient, every parameter gradient; float32 and float64) and for one
pipelined epoch per architecture (losses, gradients, final parameters):
``array_equal``, not allclose.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.models import GATConv, GINConv, SAGEConv
from repro.nn import Linear, ReLU, Sequential
from repro.sampling.mfg import Adj
from repro.tensor import Tensor, functional as F
from repro.train.config import ExperimentConfig
from repro.train.loop import Trainer

from ..helpers import OPENBLAS, blas_threads_set


# ----------------------------------------------------------------------
# The reference formulation: planless segment ops, explicit linear chain.
# ----------------------------------------------------------------------
def _ref_linear(self, x):
    out = x @ self.weight.T
    return out if self.bias is None else out + self.bias


def _edges(x_pair, edge_index):
    x_src, x_dst = x_pair
    src, dst = getattr(edge_index, "edge_index", edge_index)
    return x_src, x_dst, src, dst, x_dst.shape[0]


def _ref_sage(self, x_pair, edge_index):
    x_src, x_dst, src, dst, n_dst = _edges(x_pair, edge_index)
    reduce = getattr(F, f"segment_{self.aggregator}")
    agg = reduce(F.gather_rows(x_src, src), dst, n_dst)
    return self.lin_neigh(agg) + self.lin_root(x_dst)


def _ref_gin(self, x_pair, edge_index):
    x_src, x_dst, src, dst, n_dst = _edges(x_pair, edge_index)
    agg = F.segment_sum(F.gather_rows(x_src, src), dst, n_dst)
    return self.mlp(agg + x_dst * (1.0 + self.eps))


def _ref_gat(self, x_pair, edge_index):
    x_src, x_dst, src, dst, n_dst = _edges(x_pair, edge_index)
    loops = np.arange(n_dst, dtype=np.int64)
    src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
    h_src = self.lin(x_src).reshape(x_src.shape[0], self.heads, self.out_channels)
    alpha_src = (h_src * self.att_src).sum(axis=2)
    alpha_dst = (h_src[:n_dst] * self.att_dst).sum(axis=2)
    heads = []
    for head in range(self.heads):
        logits = (alpha_src[:, head][src] + alpha_dst[:, head][dst]).leaky_relu(
            self.negative_slope
        )
        alpha = F.segment_softmax(logits, dst, n_dst)
        weighted = F.gather_rows(h_src[:, head], src) * alpha.reshape(-1, 1)
        heads.append(F.segment_sum(weighted, dst, n_dst))
    out = heads[0] if self.heads == 1 else Tensor.concat(heads, axis=-1)
    return out if self.bias is None else out + self.bias


REFERENCE_FORWARD = {
    Linear: _ref_linear,
    SAGEConv: _ref_sage,
    GINConv: _ref_gin,
    GATConv: _ref_gat,
}


@contextmanager
def reference_forward(monkeypatch):
    """Inside: every conv and ``Linear`` runs the reference formulation."""
    with monkeypatch.context() as patch:
        for cls, forward in REFERENCE_FORWARD.items():
            patch.setattr(cls, "forward", forward)
        yield


# ----------------------------------------------------------------------
# Conv by conv
# ----------------------------------------------------------------------
IN, OUT = 6, 4
CONVS = {
    "sage-mean": lambda rng: SAGEConv(IN, OUT, bias=True, aggregator="mean", rng=rng),
    "sage-sum": lambda rng: SAGEConv(IN, OUT, bias=True, aggregator="sum", rng=rng),
    "sage-max": lambda rng: SAGEConv(IN, OUT, bias=True, aggregator="max", rng=rng),
    "gat-1": lambda rng: GATConv(IN, OUT, heads=1, bias=True, rng=rng),
    "gat-2": lambda rng: GATConv(IN, OUT, heads=2, bias=True, rng=rng),
    "gin": lambda rng: GINConv(
        Sequential(Linear(IN, 5, rng=rng), ReLU(), Linear(5, OUT, rng=rng))
    ),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", CONVS)
def test_conv_byte_identical_to_planless_reference(name, dtype, monkeypatch):
    rng = np.random.default_rng(5)
    n_src, n_dst, n_edges = 11, 7, 40
    edge_index = np.stack(
        [
            rng.integers(0, n_src, size=n_edges),
            rng.integers(0, n_dst - 1, size=n_edges),  # last target: no edges
        ]
    )
    x_np = rng.normal(size=(n_src, IN)).astype(dtype)
    conv = CONVS[name](rng)
    for param in conv.parameters():
        param.data = param.data.astype(dtype)

    def run(edge_arg):
        conv.zero_grad()
        x = Tensor(x_np.copy(), requires_grad=True)
        out = conv((x, x[:n_dst]), edge_arg)
        upstream = np.random.default_rng(9).normal(size=out.shape).astype(dtype)
        out.backward(upstream)
        grads = [np.array(p.grad) for p in conv.parameters()]
        assert all(g.dtype == dtype for g in grads)
        return [np.array(out.data), np.array(x.grad)] + grads

    # The plan cached on an Adj and the plan built per call for a raw
    # (2, E) array are the same path.  An Adj holds its layer grouped by
    # destination (one stable sort of the raw edges), so its reference runs
    # over that edge order; a raw array's over its own.
    adj = Adj.from_edge_index(edge_index, (n_src, n_dst))
    for edge_arg, edge_order in ((adj, adj.edge_index), (edge_index, edge_index)):
        with reference_forward(monkeypatch):
            reference = run(edge_order)
        for got, want in zip(run(edge_arg), reference, strict=True):
            np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Whole epochs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dataset():
    return generate_dataset("arxiv", scale=0.1, seed=0)


def _run_epoch(dataset, model, executor):
    config = ExperimentConfig(
        dataset="arxiv",
        model=model,
        hidden_channels=32,
        num_layers=2,
        train_fanouts=(5, 5),
        infer_fanouts=(5, 5),
        batch_size=64,
        epochs=1,
    )
    trainer = Trainer(dataset, config, executor=executor, seed=0)
    stats = trainer.train_epoch(0)
    params = {
        name: np.array(p.data, copy=True)
        for name, p in trainer.model.named_parameters()
    }
    grads = {
        name: None if p.grad is None else np.array(p.grad, copy=True)
        for name, p in trainer.model.named_parameters()
    }
    trainer.shutdown()
    return list(stats.losses), grads, params


@pytest.mark.parametrize("model", ["sage", "gat", "gin", "sage-ri"])
def test_fused_pooled_epoch_byte_identical_to_legacy(dataset, model, monkeypatch):
    with reference_forward(monkeypatch):
        losses_l, grads_l, params_l = _run_epoch(dataset, model, "pipelined")
    losses_f, grads_f, params_f = _run_epoch(dataset, model, "pipelined")

    assert losses_f == losses_l  # float-exact, not approx
    assert grads_f.keys() == grads_l.keys()
    for name in grads_l:
        if grads_l[name] is None:
            assert grads_f[name] is None
        else:
            np.testing.assert_array_equal(grads_f[name], grads_l[name], err_msg=name)
    for name in params_l:
        np.testing.assert_array_equal(params_f[name], params_l[name], err_msg=name)


def test_serial_matches_pipelined_under_fused(dataset):
    losses_serial, _, params_serial = _run_epoch(dataset, "sage", "serial")
    losses_pipe, _, params_pipe = _run_epoch(dataset, "sage", "pipelined")
    assert losses_serial == losses_pipe
    for name in params_serial:
        np.testing.assert_array_equal(params_serial[name], params_pipe[name])


# ----------------------------------------------------------------------
# Two cores for one batch: the split changes where work runs, never a bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wider_dataset():
    """Large enough that layer-0 gemms and aggregations split."""
    return generate_dataset("arxiv", scale=2.0, seed=0)


def _losses_and_predictions(dataset, model, parts):
    config = ExperimentConfig(
        dataset="arxiv",
        model=model,
        hidden_channels=128,
        num_layers=2,
        train_fanouts=(10, 10),
        infer_fanouts=(10, 10),
        batch_size=256,
        epochs=1,
    )
    trainer = Trainer(dataset, config, executor="pipelined", seed=0)
    # One part: every kernel runs unsplit; two split on any host.
    trainer._splitter.parts = parts
    try:
        losses = list(trainer.train_epoch(0).losses)
        predictions = trainer.predict(dataset.split.val[:200])
        split_ops = trainer.metrics.value("compute_split_ops")
    finally:
        trainer.shutdown()
    return losses, predictions, split_ops


@pytest.mark.parametrize("model", ["sage", "gat", "gin", "sage-ri"])
def test_split_losses_and_predictions_byte_identical_to_unsplit(wider_dataset, model):
    losses, predictions, split_ops = _losses_and_predictions(wider_dataset, model, 1)
    losses_s, predictions_s, split_ops_s = _losses_and_predictions(
        wider_dataset, model, 2
    )
    assert split_ops == 0 and split_ops_s > 0
    np.testing.assert_array_equal(np.array(losses_s), np.array(losses))
    np.testing.assert_array_equal(predictions_s, predictions)


@pytest.mark.skipif(OPENBLAS is None, reason="numpy's BLAS has no thread-count control")
def test_the_shells_blas_thread_count_changes_no_bit(wider_dataset):
    """The trainer holds the BLAS at one thread for its steps and
    ``predict``, so a two-thread BLAS set before it was built computes the
    same losses and predictions as a one-thread one."""
    runs = []
    for threads in (2, 1):
        with blas_threads_set(threads):
            runs.append(_losses_and_predictions(wider_dataset, "sage", 2))
    (losses_2, predictions_2, _), (losses_1, predictions_1, _) = runs
    np.testing.assert_array_equal(np.array(losses_2), np.array(losses_1))
    np.testing.assert_array_equal(predictions_2, predictions_1)
