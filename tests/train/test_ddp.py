"""DDP simulation: replica synchronization and gradient-averaging semantics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.sampling import FastNeighborSampler
from repro.train import DDPTrainer, get_config


@pytest.fixture()
def make_ddp():
    """``DDPTrainer(...)``, shut down at the end of the test (its rank
    pipelines keep their prepare threads until then)."""
    made = []

    def make(*args, **kwargs):
        made.append(DDPTrainer(*args, **kwargs))
        return made[-1]

    try:
        yield make
    finally:
        for ddp in made:
            ddp.shutdown()


@pytest.fixture()
def ddp_config():
    return replace(
        get_config("arxiv", "sage"),
        batch_size=32,
        hidden_channels=16,
        num_layers=2,
        train_fanouts=(6, 4),
        infer_fanouts=(6, 6),
    )


class TestDDPTrainer:
    def test_replicas_start_identical(self, tiny_dataset, ddp_config, make_ddp):
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=3, seed=0)
        assert ddp.max_replica_divergence() == 0.0

    def test_replicas_stay_in_sync_after_training(
        self, tiny_dataset, ddp_config, make_ddp
    ):
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=2, seed=0)
        ddp.train_epoch(0)
        # SAGE has no BatchNorm buffers, so replicas must agree exactly
        assert ddp.max_replica_divergence() == 0.0

    def test_rank_run_delivers_adjs_with_plans(
        self, tiny_dataset, ddp_config, make_ddp
    ):
        """Replicas get their plans from ``PrepareStage`` like every other
        pipeline; DDP has no plan code of its own."""
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=2, seed=0)
        shards = ddp._rank_shards(0)[1]
        run = ddp._start_rank_run(1, shards)
        plans = []
        for _ in shards:
            plans.extend(adj.plan for adj in run.next_envelope().sliced.mfg.adjs)
        run.drain()
        assert len(plans) == 2 * len(shards)
        assert all(plan is not None for plan in plans)
        assert ddp.metrics.value("aggregation_plans_built") == len(plans)

    def test_epoch_produces_steps(self, tiny_dataset, ddp_config, make_ddp):
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=2, seed=0)
        history = ddp.train_epoch(0)
        expected_steps = int(
            np.ceil(len(tiny_dataset.split.train) / (2 * ddp_config.batch_size))
        )
        assert len(history) == expected_steps
        assert all(np.isfinite(h.loss) and h.grad_norm >= 0 for h in history)

    def test_loss_decreases(self, tiny_dataset, ddp_config, make_ddp):
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=2, seed=0)
        first = np.mean([h.loss for h in ddp.train_epoch(0)])
        for epoch in range(1, 5):
            last = np.mean([h.loss for h in ddp.train_epoch(epoch)])
        assert last < first

    def test_gradient_averaging_matches_big_batch(
        self, tiny_dataset, ddp_config, make_ddp
    ):
        """The core DDP identity: averaging gradients over K equal shards of
        a batch equals the gradient of the mean loss over the full batch
        (both use mean-reduction NLL)."""
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=2, seed=0)
        # grab one synchronized step's averaged gradient: each rank's first
        # batch, taken from a run on its pipeline
        shards = ddp._rank_shards(0)
        rank_grads = []
        for rank in range(2):
            run = ddp._start_rank_run(rank, shards[rank][:1])
            env = run.next_envelope()
            run.drain()
            rank_grads.append(ddp._replica_step(rank, env.sliced)[0])
        grads_a, grads_b = rank_grads
        averaged = [(a + b) / 2 for a, b in zip(grads_a, grads_b)]

        # big-batch gradient with the same MFGs: replicate by re-sampling the
        # same shard MFGs through the per-rank RNGs and summing manually.
        from repro.tensor import Tensor, functional as F

        sampler = FastNeighborSampler(
            tiny_dataset.graph, list(ddp_config.train_fanouts)
        )
        model = ddp.replicas[0]
        model.zero_grad()
        total = None
        for rank, shard_nodes in ((0, shards[0][0]), (1, shards[1][0])):
            rng = np.random.default_rng(
                np.random.SeedSequence([ddp.seed, 11, 0, rank])
            )
            mfg = sampler.sample(shard_nodes, rng)
            x = Tensor(tiny_dataset.features[mfg.n_id].astype(np.float32))
            y = tiny_dataset.labels[mfg.target_ids()]
            model.eval()  # disable dropout so gradients are comparable
            loss = F.nll_loss(model(x, mfg.adjs), y)
            loss.backward()
        combined = [p.grad / 2 for p in model.parameters()]

        # Eval-mode combined grads vs train-mode averaged grads won't match
        # exactly (dropout); compare only direction/coarse magnitude.
        cos = sum(
            float((a * b).sum())
            for a, b in zip(averaged, combined)
        ) / (
            np.sqrt(sum(float((a * a).sum()) for a in averaged))
            * np.sqrt(sum(float((b * b).sum()) for b in combined))
        )
        assert cos > 0.6

    def test_distributed_inference_covers_all_nodes(
        self, tiny_dataset, ddp_config, make_ddp
    ):
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=3, seed=0)
        nodes = tiny_dataset.split.val
        out = ddp.distributed_inference(nodes)
        assert out.shape == (len(nodes), tiny_dataset.num_classes)
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, rtol=1e-4)

    def test_distributed_inference_matches_single_rank_at_full_fanout(
        self, tiny_dataset, ddp_config, make_ddp
    ):
        """With full neighborhoods there is no sampling noise, so sharded
        inference over identical replicas equals single-replica output."""
        from dataclasses import replace as dc_replace

        from repro.train import sampled_inference

        cfg = dc_replace(ddp_config, infer_fanouts=(None, None))
        ddp = make_ddp(tiny_dataset, cfg, num_ranks=2, seed=0)
        nodes = tiny_dataset.split.val[:40]
        sharded = ddp.distributed_inference(nodes)
        single = sampled_inference(
            ddp.replicas[0],
            tiny_dataset.features,
            tiny_dataset.graph,
            nodes,
            [None, None],
            batch_size=cfg.batch_size,
        )
        np.testing.assert_allclose(sharded, single, rtol=1e-4, atol=1e-5)

    def test_evaluate(self, tiny_dataset, ddp_config, make_ddp):
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=2, seed=0)
        for epoch in range(4):
            ddp.train_epoch(epoch)
        acc = ddp.evaluate("val")
        assert 0.0 <= acc <= 1.0

    def test_single_rank_equals_sequential(self, tiny_dataset, ddp_config, make_ddp):
        """num_ranks=1 DDP reduces to plain mini-batch training."""
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=1, seed=3)
        history = ddp.train_epoch(0)
        assert len(history) == int(
            np.ceil(len(tiny_dataset.split.train) / ddp_config.batch_size)
        )

    def test_invalid_ranks(self, tiny_dataset, ddp_config):
        with pytest.raises(ValueError):
            DDPTrainer(tiny_dataset, ddp_config, num_ranks=0)

    def test_param_bytes_positive(self, tiny_dataset, ddp_config, make_ddp):
        ddp = make_ddp(tiny_dataset, ddp_config, num_ranks=2)
        assert ddp.param_bytes() > 0
