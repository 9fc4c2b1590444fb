"""The benchmark's single source of configuration: one canonical config,
four workloads, and the metric tables ``BENCHMARK.json`` is generated from.

Nothing here imports the program; ``run.py`` turns a :class:`Workload` into
``Trainer`` arguments and the program never sees a workload's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: scratch (feature slabs, per-workload result files); inside the checkout,
#: git-ignored, emptied as the benchmark goes
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Shared by every workload. Fanouts (15,10,5)/(20,20,20), 3 layers and
#: batch 256 come from the program's own Table-5 SAGE rows
#: (``repro.train.config.get_config``); only the width is overridden.
COMMON = {
    "model": "sage",
    "scale": 4.0,
    "sampler": "fast",
    "compute": "fused",
    "num_workers": 2,
    "transfer_bandwidth": 4e8,
}

#: ``--smoke`` overrides: half-size datasets, two rounds, one set-up.
SMOKE = {"scale": 2.0, "rounds": 2, "setups": 1}


@dataclass(frozen=True)
class Workload:
    """One fixed set of inputs and the execution policy it is run under."""

    name: str
    why: str  # one line, copied into BENCHMARK.json
    dataset: str
    hidden: int
    executor: str
    feature_tier: str
    infer_executor: str
    eval_nodes: int  # prefix of concat(split.val, split.test)
    rounds: int  # measured {train_epoch, predict} rounds (E)
    target: float  # eval accuracy train.epochs_to_target waits for
    #: how often set-up is done for the ``setup_s`` median; the 80k-node
    #: slab + spawn set-up is too slow to repeat inside the time cap
    setups: int
    #: max |delta| of warm-up losses against Trainer(serial, ram); 0 = bitwise
    loss_tolerance: float = 0.0


WORKLOADS = (
    Workload(
        name="arxiv-wide-compute",
        why="Hidden 256 on a sparse graph: forward+backward are ~80% of the serial "
        "ledger, sampling ~10%; tensor/nn/models changes show here, sampler changes should not.",
        dataset="arxiv",
        hidden=256,
        executor="pipelined",
        feature_tier="ram",
        infer_executor="pipelined",
        eval_nodes=512,
        rounds=6,
        target=0.58,
        setups=2,
    ),
    Workload(
        name="products-sample",
        why="Degree-40 graph, hidden 64: sampling is 45-53% of the serial ledger and "
        "prep_wait is non-zero, so sampler and prepare-parallelism changes show here; slicing ~1%.",
        dataset="products",
        hidden=64,
        executor="pipelined",
        feature_tier="ram",
        infer_executor="pipelined",
        eval_nodes=256,
        rounds=7,
        target=0.64,
        setups=2,
    ),
    Workload(
        name="papers-quant-mp",
        why="80k nodes, uint8 mmap slab + hot tier, prepare in 2 spawn workers over shm: "
        "the only workload where storage, dequantize-on-slice and IPC costs show; quantization moves eval_acc.",
        dataset="papers",
        hidden=64,
        executor="multiprocess",
        feature_tier="mmap-quant",
        infer_executor="serial",
        eval_nodes=256,
        # Training sits on a plateau for two to four epochs before accuracy
        # takes off, and when it does differs by about half an epoch between
        # seeds: a target reached late keeps that a small share of the epochs.
        rounds=7,
        target=0.56,
        setups=1,
        loss_tolerance=1e-2,
    ),
    Workload(
        name="products-infer",
        why="Same model as products-sample but inference (fanout 20^3) is >=70% of the "
        "wall-clock: a training gain that costs sampled inference (paper section 5) shows here.",
        dataset="products",
        hidden=64,
        executor="pipelined",
        feature_tier="ram",
        infer_executor="pipelined",
        eval_nodes=1280,
        rounds=5,
        target=0.56,
        # the same set-up as products-sample, which repeats it
        setups=1,
    ),
)

#: How long one run measures; ``rounds`` above are sized to fill it on the
#: 2-core reference box, and a run keeps adding rounds until it has.
RUN_SECONDS = 10

#: (name, unit, better, bound). The bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: All sit at the manifest's ceiling: across ten seeds on the 2-vCPU reference
#: VM the quartile spread of the timings reached 15% (host noise lasting
#: several runs) and that of ``eval_acc`` 12% (README, "Measured"), and a
#: bound under the noise floor only produces "unresolved". Time to accuracy
#: is per-layer (``train.*``): across seeds it spreads up to 22%.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("epoch_s", "s", "lower", 0.25),
    ("epoch_cpu_s", "s", "lower", 0.25),
    ("infer_nodes_per_s", "nodes/s", "higher", 0.25),
    ("eval_acc", "fraction", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
)

#: (name, unit, better). Dotted prefix = the program module the number
#: belongs to. "run" numbers come from the untraced rounds, the rest from
#: the traced pass (see README.md for each definition).
PER_LAYER = (
    ("datasets.generate_s", "s", "lower"),
    ("datasets.slab_write_s", "s", "lower"),
    ("train.construct_s", "s", "lower"),
    ("train.warmup_epoch_s", "s", "lower"),
    ("train.epochs_to_target", "epochs", "lower"),
    ("train.time_to_target_s", "s", "lower"),
    ("sampling.sample_ms", "ms/batch", "lower"),
    ("sampling.edges_per_s", "edges/s", "higher"),
    ("sampling.edges_per_batch", "count", "lower"),
    ("sampling.input_nodes_per_batch", "count", "lower"),
    ("sampling.share", "fraction", "lower"),
    ("slicing.slice_ms", "ms/batch", "lower"),
    ("slicing.rows_per_s", "rows/s", "higher"),
    ("slicing.bytes_per_batch", "bytes", "lower"),
    ("slicing.share", "fraction", "lower"),
    ("slicing.hot_hit_frac", "fraction", "higher"),
    ("slicing.mmap_wait_s", "s", "lower"),
    ("slicing.resident_mb", "MiB", "lower"),
    ("plan.build_ms", "ms/batch", "lower"),
    ("plan.share", "fraction", "lower"),
    ("transfer.ms", "ms/batch", "lower"),
    ("transfer.bytes_per_batch", "bytes", "lower"),
    ("transfer.effective_gbps", "GB/s", "higher"),
    ("transfer.share", "fraction", "lower"),
    ("compute.forward_ms", "ms/batch", "lower"),
    ("compute.backward_ms", "ms/batch", "lower"),
    ("compute.optimizer_ms", "ms/batch", "lower"),
    ("compute.share", "fraction", "lower"),
    ("compute.workspace_hit_frac", "fraction", "higher"),
    ("pipeline.prep_wait_frac", "fraction", "lower"),
    ("pipeline.transfer_wait_frac", "fraction", "lower"),
    ("pipeline.train_frac", "fraction", "higher"),
    ("pipeline.worker_busy_frac", "fraction", "lower"),
    ("pipeline.overlap_speedup", "ratio", "higher"),
    ("ledger.sum_s", "s", "lower"),
    ("ledger.serial_epoch_s", "s", "lower"),
    ("ledger.unaccounted_frac", "fraction", "lower"),
    ("mp.worker_cpu_s", "s/epoch", "lower"),
    ("mp.result_wait_frac", "fraction", "lower"),
    ("mp.spill_batches", "count", "lower"),
    ("infer.eval_s", "s", "lower"),
    ("infer.batches_per_eval", "count", "lower"),
    ("infer.serial_nodes_per_s", "nodes/s", "higher"),
    ("infer.overlap_speedup", "ratio", "higher"),
    ("telemetry.tracer_overhead_frac", "fraction", "lower"),
    ("telemetry.spans_per_epoch", "count", "lower"),
    ("memory.rss_after_setup_mb", "MiB", "lower"),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; have {[w.name for w in WORKLOADS]}")


def manifest() -> dict:
    """The document ``BENCHMARK.json`` must equal (``run.py --write-manifest``)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
