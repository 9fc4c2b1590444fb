"""Compute-ready compact batches: the wire carries what the compute reads.

A fast-sampler layer is an int32 CSR from the sampler to the kernels, so a
batch's transfer is its feature rows, its labels and every layer's
``indptr`` + ``indices`` — no COO, no ``n_id`` — and ``Device`` meters
exactly that.  The plan's per-edge views (``dst``, ``perm``, ``starts``,
``seg_ids``) serve max aggregation, softmax and GAT only: a SAGE-mean
train step and ``predict`` must leave them unbuilt, so no later change
can move their cost onto the compute thread unnoticed.
"""

import numpy as np
import pytest

from repro.runtime import Device
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore, slice_batch_fused
from repro.tensor.plan import AggregationPlan
from repro.train import Trainer
from repro.train.config import ExperimentConfig

LAZY_VIEWS = ("_dst", "_perm", "_starts", "_seg_ids")


def _fast_batches(dataset, fanouts, count=3):
    store = FeatureStore(dataset.features, dataset.labels)
    sampler = FastNeighborSampler(dataset.graph, list(fanouts))
    rng = np.random.default_rng(3)
    for _ in range(count):
        nodes = rng.choice(dataset.split.train, size=64, replace=False)
        yield slice_batch_fused(store, sampler.sample(nodes, rng))


@pytest.mark.parametrize("fanouts", [(15, 10, 5), (20, 20, 20), (5, None)])
def test_wire_is_rows_labels_and_int32_csr(small_products, fanouts):
    device = Device()
    try:
        metered = 0
        for batch in _fast_batches(small_products, fanouts):
            csr = 0
            for adj in batch.mfg.adjs:
                assert adj.indptr.dtype == adj.indices.dtype == np.int32
                csr += adj.indptr.nbytes + adj.indices.nbytes
            want = batch.xs.nbytes + batch.ys.nbytes + csr
            assert batch.nbytes() == want
            device.transfer_batch(batch)
            metered += want
            assert device.bytes_transferred == metered
    finally:
        device.shutdown()


def test_sage_step_and_predict_leave_the_lazy_views_unbuilt(small_products, monkeypatch):
    plans = []
    from_csr = AggregationPlan.from_csr.__func__

    def recording(cls, *args):
        plan = from_csr(cls, *args)
        plans.append(plan)
        return plan

    monkeypatch.setattr(AggregationPlan, "from_csr", classmethod(recording))
    config = ExperimentConfig(
        dataset="products",
        model="sage",
        num_layers=3,
        hidden_channels=16,
        train_fanouts=(15, 10, 5),
        infer_fanouts=(20, 20, 20),
        batch_size=128,
    )
    trainer = Trainer(
        small_products, config, executor="pipelined", infer_executor="pipelined", seed=0
    )
    try:
        trainer.train_epoch(0)
        trained = len(plans)
        trainer.predict(small_products.split.test[:200])
    finally:
        trainer.shutdown()
    assert trained >= 3 and len(plans) > trained
    for plan in plans:
        assert all(getattr(plan, name) is None for name in LAZY_VIEWS), plan
