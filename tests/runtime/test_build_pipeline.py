"""The one seam: ``build_pipeline`` (policy -> stages) and ``RuntimeConfig``
(the single validation point), replacing the per-executor-class tests."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.models import GraphSAGE
from repro.nn import Adam
from repro.runtime import POLICIES, Device, RuntimeConfig, Tracer, build_pipeline
from repro.runtime.pipeline import (
    FEATURE_TIERS,
    INFER_POLICIES,
    SAMPLERS,
    START_METHODS,
)
from repro.runtime.stages import RunSpec
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore
from repro.tensor import Tensor, functional as F
from repro.train import Trainer, sampled_inference
from repro.train.config import ExperimentConfig

from ..helpers import process_state, settled_process_state

WORKERS = 2
DEPTH = 3

#: policy -> (the one prepare stage's (name, worker count, double-copy
#: reference slice?), prefetch depth)
EXPECTED_SHAPE = {
    "serial": (("prepare", 1, True), 0),
    "pipelined": (("prepare", WORKERS, False), DEPTH),
    "multiprocess": (("prepare", WORKERS, False), DEPTH),
}

#: policy -> the prepare stage's spans, per batch, in start order
PREPARE_SPANS = {
    "serial": ["sample", "slice", "plan_build"],
    "pipelined": ["sample", "slice", "plan_build"],
    "multiprocess": ["prepare", "plan_build"],
}


def _make_train_fn(dataset):
    model = GraphSAGE(
        dataset.num_features, 16, dataset.num_classes, num_layers=2,
        rng=np.random.default_rng(4),
    )
    optimizer = Adam(model.parameters(), lr=1e-2)

    def train_fn(batch):
        model.train()
        optimizer.zero_grad()
        loss = F.nll_loss(model(Tensor(batch.xs.data), batch.mfg.adjs), batch.ys.data)
        loss.backward()
        optimizer.step()
        return loss.item()

    return train_fn


def _run(policy, dataset, batches):
    """(pipeline shape, losses, process state before/after) for one epoch."""
    store = FeatureStore(dataset.features, dataset.labels)
    before = process_state()  # the device's transfer stream included
    device = Device()
    pipeline = build_pipeline(
        policy,
        lambda: FastNeighborSampler(dataset.graph, [5, 3]),
        store,
        device=device,
        num_workers=WORKERS,
        prefetch_depth=DEPTH,
        max_batch=16,
        seed=9,
        start_method="fork",  # spawn is exercised in test_mp_prepare
    )
    try:
        stage = pipeline.prepare_stage
        shape = (
            (stage.name, stage.workers, getattr(stage, "reference", False)),
            pipeline.prefetch_depth,
        )
        assert pipeline.device is device
        losses = pipeline.run_epoch(batches, _make_train_fn(dataset)).losses
        if pipeline.pinned_pool is not None:
            pool = pipeline.pinned_pool
            assert pool.free_slots() == pool.total_slots
    finally:
        pipeline.close()
        pipeline.close()  # idempotent
        device.shutdown()
    after = settled_process_state(before)
    return shape, losses, before, after


class TestPolicyTable:
    @pytest.fixture(scope="class")
    def batches(self, small_products):
        rng = np.random.default_rng(0)
        return [
            rng.choice(small_products.num_nodes, size=16, replace=False)
            for _ in range(6)
        ]

    @pytest.fixture(scope="class")
    def serial_losses(self, small_products, batches):
        return _run("serial", small_products, batches)[1]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_builds_runs_and_closes(
        self, policy, small_products, batches, serial_losses
    ):
        shape, losses, before, after = _run(policy, small_products, batches)
        assert shape == EXPECTED_SHAPE[policy]
        assert losses == serial_losses  # bit for bit
        assert after == before

    def test_inference_drops_transfer_pool_and_plans(self, small_products):
        """Device-less inference drops the transfer and the pool; it no
        longer drops plans (``test_every_adj_reaches_compute_with_its_plan``).
        """
        store = FeatureStore(small_products.features, half_precision=None)
        factory = lambda: FastNeighborSampler(small_products.graph, [5, 3])  # noqa: E731
        for policy in ("serial", "pipelined"):
            pipeline = build_pipeline(policy, factory, store)
            assert pipeline.device is None
            assert pipeline.pinned_pool is None

    @pytest.mark.parametrize("infer", [False, True], ids=["train", "infer"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_adj_reaches_compute_with_its_plan(
        self, policy, infer, small_products, batches
    ):
        store = FeatureStore(small_products.features, small_products.labels)
        plans = []

        def compute_fn(batch):
            plans.extend(adj.plan for adj in batch.mfg.adjs)
            return 0.0

        pipeline = build_pipeline(
            policy,
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            num_workers=WORKERS,
            max_batch=16,
            start_method="fork",
        )
        spec = RunSpec(compute_name="infer") if infer else None
        try:
            pipeline.run_epoch(batches, compute_fn, spec=spec)
        finally:
            pipeline.close()
        assert len(plans) == 2 * len(batches)
        assert all(plan is not None for plan in plans)
        built = pipeline.ctx.metrics.value("aggregation_plans_built")
        assert built == len(plans)

    @pytest.mark.parametrize(
        "policy,infer",
        [
            ("serial", False),
            ("serial", True),
            ("pipelined", False),
            ("pipelined", True),
            ("multiprocess", False),
        ],
        ids=lambda value: {False: "train", True: "infer"}.get(value, value),
    )
    def test_span_names_per_batch(self, policy, infer, small_products, batches):
        """One prepare stage, the same spans as before it was one: every
        batch records exactly these names, with a device (training) and
        without one (inference)."""
        store = FeatureStore(small_products.features, small_products.labels)
        tracer = Tracer()
        device = None if infer else Device()
        pipeline = build_pipeline(
            policy,
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            device=device,
            num_workers=WORKERS,
            max_batch=16,
            start_method="fork",
            tracer=tracer,
        )
        spec = RunSpec(compute_name="infer") if infer else None
        try:
            pipeline.run_epoch(batches, lambda batch: 0.0, spec=spec)
        finally:
            pipeline.close()
            if device is not None:
                device.shutdown()
        expected = PREPARE_SPANS[policy] + (
            ["infer"] if infer else ["transfer", "train"]
        )
        for index in range(len(batches)):
            spans = sorted(
                (e for e in tracer.events if e.batch == index), key=lambda e: e.start
            )
            assert [e.name for e in spans] == expected

    def test_unknown_policy_rejected(self, small_products):
        store = FeatureStore(small_products.features, small_products.labels)
        factory = lambda: FastNeighborSampler(small_products.graph, [3])  # noqa: E731
        for policy in ("turbo", "staged"):
            with pytest.raises(ValueError, match="policy"):
                build_pipeline(policy, factory, store)

    @pytest.mark.parametrize("start_method", ["bogus", "forkserver"])
    def test_unknown_start_method_rejected_before_anything_exists(
        self, start_method, small_products
    ):
        """Checked against START_METHODS before the slot pool, the dataset
        segment or a worker exists: nothing is left in ``/dev/shm`` and no
        forkserver starts."""
        store = FeatureStore(small_products.features, small_products.labels)
        factory = lambda: FastNeighborSampler(small_products.graph, [3])  # noqa: E731
        before = process_state()
        with pytest.raises(ValueError, match="start_method"):
            build_pipeline(
                "multiprocess", factory, store, max_batch=16, start_method=start_method
            )
        assert settled_process_state(before) == before


#: enumerated RuntimeConfig field -> (allowed values, ``repro train`` flag);
#: ``compute`` is one-valued and has no flag (kept for ``benchmarks/e2e``)
ENUMERATED = {
    "executor": (POLICIES, "--executor"),
    "sampler": (tuple(SAMPLERS), "--sampler"),
    "infer_executor": (INFER_POLICIES, "--infer-executor"),
    "compute": (("fused",), None),
    "mp_start_method": (START_METHODS, "--mp-start-method"),
    "feature_tier": (FEATURE_TIERS, "--feature-tier"),
}


#: values an enumerated field used to accept (the ``staged`` policy, the
#: never-exercised start method): now the usual ValueError
RETIRED = {
    "executor": ("staged",),
    "infer_executor": ("staged",),
    "mp_start_method": ("forkserver",),
}


class TestRuntimeConfigValidation:
    def test_config_is_frozen(self):
        config = RuntimeConfig()
        with pytest.raises(AttributeError):
            config.executor = "serial"

    @pytest.mark.parametrize("field", ENUMERATED)
    def test_unknown_value_rejected_at_every_entry_point(
        self, field, tiny_dataset, capsys
    ):
        allowed, flag = ENUMERATED[field]
        for value in allowed:
            RuntimeConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            RuntimeConfig(**{field: "bogus"})
        with pytest.raises(ValueError, match="compute"):
            RuntimeConfig(compute="legacy")
        for retired in RETIRED.get(field, ()):
            with pytest.raises(ValueError, match=field):
                RuntimeConfig(**{field: retired})
        config = ExperimentConfig(dataset="arxiv", model="sage", num_layers=2)
        with pytest.raises(ValueError, match=field):
            Trainer(tiny_dataset, config, **{field: "bogus"})
        if flag is None:
            return
        # The CLI's choices are the same constants, so argparse rejects
        # exactly what RuntimeConfig would.
        parser = build_parser()
        train = parser._subparsers._group_actions[0].choices["train"]
        action = next(a for a in train._actions if flag in a.option_strings)
        assert tuple(action.choices) == tuple(allowed)
        with pytest.raises(SystemExit):
            parser.parse_args(["train", flag, "bogus"])
        assert flag in capsys.readouterr().err

    def test_sampled_inference_validates_through_runtime_config(self, tiny_dataset):
        model = GraphSAGE(
            tiny_dataset.num_features, 8, tiny_dataset.num_classes, num_layers=2
        )
        with pytest.raises(ValueError, match="infer_executor"):
            sampled_inference(
                model,
                tiny_dataset.features,
                tiny_dataset.graph,
                tiny_dataset.split.val[:4],
                [3, 3],
                executor="multiprocess",
            )

    def test_trainer_infer_executor_is_settable_and_validated(self, tiny_dataset):
        config = ExperimentConfig(dataset="arxiv", model="sage", num_layers=2)
        trainer = Trainer(tiny_dataset, config, executor="serial")
        try:
            trainer.infer_executor = "pipelined"
            assert trainer.runtime.infer_executor == "pipelined"
            with pytest.raises(ValueError, match="infer_executor"):
                trainer.infer_executor = "bogus"
            assert trainer.infer_executor == "pipelined"
        finally:
            trainer.shutdown()
