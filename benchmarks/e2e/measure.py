"""One workload, set up, measured, checked and (optionally) traced in this process.

Closed loop, one client: each round is ``Trainer.train_epoch`` then
``Trainer.predict`` on a fixed node set, driven through the program's public
API with its own tracing off. The traced pass afterwards times the public
layer functions from here, on a separate serial ``Trainer``.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.datasets import (
    clear_cache,
    dataset_slab_path,
    get_dataset,
    write_dataset_slab,
)
from repro.runtime.device import Device
from repro.sampling.fast_sampler import FastNeighborSampler
from repro.slicing.slicer import build_aggregation_plans, slice_batch_fused
from repro.telemetry import ProbeSampler, Tracer
from repro.tensor import Tensor, Workspace, compute_scope, functional as F, workspace_scope
from repro.train import Trainer
from repro.train.config import get_config
from repro.train.metrics import accuracy

from trace import SpanRecorder
from workloads import COMMON, END_TO_END, PER_LAYER, SMOKE, WORK_DIR, Workload

#: measured epochs of each traced-pass step (hand-driven, serial, tracer-on)
TRACED_EPOCHS = 2
#: the warm-up predict only has to run the inference path once; nothing it
#: builds outlives the call, so a sliver of a batch is enough
WARMUP_PREDICT_NODES = 32

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_MIB = 1024.0 * 1024.0


# ----------------------------------------------------------------------
# Process-tree accounting (/proc; the workload's workers are direct children)
# ----------------------------------------------------------------------
def _children() -> dict[int, list[str]]:
    """Live direct children: pid -> /proc/<pid>/stat fields after the name."""
    me = str(os.getpid())
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # exited between listdir and read
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[1] == me and fields[0] != "Z":
            out[int(entry)] = fields
    return out


def _children_cpu_seconds() -> float:
    return sum(
        (int(f[11]) + int(f[12])) / _CLK_TCK for f in _children().values()
    )


def _status_mib(pid: int, key: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _tree_mib(key: str) -> float:
    return sum(_status_mib(pid, key) for pid in [os.getpid(), *_children()])


def _worker_children() -> list[int]:
    """Children the program started, i.e. all but the stdlib's shared-memory
    resource tracker, which lives until this process exits."""
    out = []
    for pid in _children():
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            out.append(pid)
    return out


def _shm_entries() -> set[str]:
    """Shared-memory segments. The stdlib's ``sem.*`` entries are left out:
    they belong to multiprocessing queues and go when those are collected."""
    try:
        return {e for e in os.listdir("/dev/shm") if not e.startswith("sem.")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def make_trainer(workload: Workload, dataset, seed: int, slab_dir, **overrides) -> Trainer:
    config = replace(
        get_config(workload.dataset, COMMON["model"]), hidden_channels=workload.hidden
    )
    kwargs = dict(
        executor=workload.executor,
        sampler=COMMON["sampler"],
        device=Device(transfer_bandwidth=COMMON["transfer_bandwidth"]),
        num_workers=COMMON["num_workers"],
        seed=seed,
        infer_executor=workload.infer_executor,
        compute=COMMON["compute"],
        feature_tier=workload.feature_tier,
    )
    kwargs.update(overrides)
    if kwargs["feature_tier"] != "ram":
        kwargs["slab_dir"] = slab_dir
    return Trainer(dataset, config, **kwargs)


@dataclass
class SetUp:
    dataset: object
    trainer: Trainer
    eval_nodes: np.ndarray
    slab_dir: Path
    seconds: dict  # generate / slab_write / construct / warmup_epoch / warmup_predict / total
    warmup_losses: list
    rss_mb: float


def set_up(workload: Workload, seed: int, scale: float, tag: str) -> SetUp:
    """Everything a user waits for before the first useful epoch."""
    slab_dir = WORK_DIR / f"slab-{os.getpid()}-{tag}"
    t0 = time.perf_counter()
    clear_cache()  # get_dataset memoizes; set-up must pay for generation
    dataset = get_dataset(workload.dataset, scale=scale, seed=seed)
    t1 = time.perf_counter()
    if workload.feature_tier != "ram":
        encoding = "uint8" if workload.feature_tier == "mmap-quant" else "raw"
        write_dataset_slab(
            dataset, dataset_slab_path(slab_dir, dataset.name, encoding), encoding=encoding
        )
    t2 = time.perf_counter()
    trainer = make_trainer(workload, dataset, seed, slab_dir)
    t3 = time.perf_counter()
    eval_nodes = np.concatenate([dataset.split.val, dataset.split.test])[
        : workload.eval_nodes
    ]
    warmup = trainer.train_epoch(0)
    t4 = time.perf_counter()
    trainer.predict(eval_nodes[:WARMUP_PREDICT_NODES])
    t5 = time.perf_counter()
    return SetUp(
        dataset=dataset,
        trainer=trainer,
        eval_nodes=eval_nodes,
        slab_dir=slab_dir,
        seconds={
            "generate": t1 - t0,
            "slab_write": t2 - t1,
            "construct": t3 - t2,
            "warmup_epoch": t4 - t3,
            "warmup_predict": t5 - t4,
            "total": t5 - t0,
        },
        warmup_losses=list(warmup.losses),
        rss_mb=_tree_mib("VmRSS"),
    )


def tear_down(setup: SetUp) -> None:
    setup.trainer.shutdown()
    shutil.rmtree(setup.slab_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Measured rounds
# ----------------------------------------------------------------------
@dataclass
class Rounds:
    epoch_s: list = field(default_factory=list)
    epoch_cpu_s: list = field(default_factory=list)
    worker_cpu_s: list = field(default_factory=list)
    predict_s: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    stats: list = field(default_factory=list)  # EpochStats per round
    result_wait_s: list = field(default_factory=list)
    losses_finite: bool = True
    attempted: int = 0
    failed: int = 0
    error: str = ""
    log_probs: np.ndarray | None = None


def measure_rounds(setup: SetUp, min_rounds: int, seconds: float) -> Rounds:
    """``min_rounds`` rounds, then more until ``seconds`` have been measured.

    One operation is one training or inference mini-batch; a call that
    raises fails all of its batches and ends the run.
    """
    trainer, nodes = setup.trainer, setup.eval_nodes
    labels = setup.dataset.labels[nodes]
    batch = trainer.config.batch_size
    train_batches = math.ceil(len(setup.dataset.split.train) / batch)
    infer_batches = math.ceil(len(nodes) / batch)
    out = Rounds()
    deadline = time.perf_counter() + seconds
    epoch = 0
    while epoch < min_rounds or time.perf_counter() < deadline:
        epoch += 1
        out.attempted += train_batches
        wait0 = trainer.metrics.value("mp_result_wait_seconds")
        kids0 = _children_cpu_seconds()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            stats = trainer.train_epoch(epoch)
        except Exception as exc:  # the run is over; report it as failed operations
            out.failed += train_batches
            out.error = f"train_epoch({epoch}): {type(exc).__name__}: {exc}"
            break
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        kids1 = _children_cpu_seconds()
        out.epoch_s.append(t1 - t0)
        out.worker_cpu_s.append(kids1 - kids0)
        out.epoch_cpu_s.append(cpu1 - cpu0 + kids1 - kids0)
        out.result_wait_s.append(
            trainer.metrics.value("mp_result_wait_seconds") - wait0
        )
        out.stats.append(stats)
        out.losses_finite &= bool(np.all(np.isfinite(stats.losses)))

        out.attempted += infer_batches
        t2 = time.perf_counter()
        try:
            out.log_probs = trainer.predict(nodes)
        except Exception as exc:
            out.failed += infer_batches
            out.error = f"predict after epoch {epoch}: {type(exc).__name__}: {exc}"
            break
        out.predict_s.append(time.perf_counter() - t2)
        out.accuracy.append(accuracy(out.log_probs, labels))
    return out


def _summary(samples: list) -> dict:
    """Median plus the spread facts a reader needs to judge it."""
    out = {"value": statistics.median(samples), "n": len(samples), "min": min(samples)}
    if len(samples) >= 4:  # quartiles of fewer are extrapolation
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def traced_pass(
    workload: Workload, setup: SetUp, seed: int, epoch_s: float, trace_out
) -> dict:
    """Per-layer numbers from spans around each public layer call.

    A separate serial ``Trainer`` supplies store, model, optimizer and device,
    so the measured trainer's state is untouched.
    """
    trainer = make_trainer(
        workload, setup.dataset, seed, setup.slab_dir, executor="serial"
    )
    hand = _HandDrivenLoop(trainer, seed)
    recorded, serial_epoch = [], []
    try:
        # One warm-up epoch each way: the hand-driven loop and the trainer's
        # serial executor each own a sampler arena and a workspace pool to fill.
        hand.epoch(0)
        trainer.train_epoch(1)
        # Then the two alternate, so drift over the pass lands on both
        # sides of ledger.unaccounted_frac.
        for step in range(1, 1 + TRACED_EPOCHS):
            recorded.append(hand.epoch(2 * step))
            t0 = time.perf_counter()
            trainer.train_epoch(2 * step + 1)
            serial_epoch.append(time.perf_counter() - t0)
    finally:
        trainer.shutdown()
    # The ledger is the fastest epoch on each side. Whole epochs here swing by
    # +-10% with the host, always upwards, and the residual between two means
    # of two swung as far (-0.13..+0.12 on papers-quant-mp).
    recorder, counts = min(recorded, key=lambda pair: pair[0].spans[0].duration)
    serial_epoch_s = min(serial_epoch)
    if trace_out:
        recorder.write_chrome_trace(trace_out)

    own = recorder.self_time_by_name()
    batches = recorder.count("batch")
    own["compute"] = sum(
        own[f"compute.{part}"] for part in ("step", "forward", "backward", "optimizer")
    )
    # "epoch" and "batch" self time is this file's own loop glue; it is part
    # of the hand-driven wall-clock, so the ledger keeps it.
    ledger_sum = recorder.spans[0].duration
    traced_epoch_s, spans_per_epoch = _tracer_on_epochs(workload, setup, seed)

    def ms_per_batch(name: str) -> float:
        return 1e3 * own[name] / batches

    return {
        "sampling.sample_ms": ms_per_batch("sampling.sample"),
        "sampling.edges_per_s": counts["edges"] / own["sampling.sample"],
        "sampling.edges_per_batch": counts["edges"] / batches,
        "sampling.input_nodes_per_batch": counts["input_nodes"] / batches,
        "sampling.share": own["sampling.sample"] / ledger_sum,
        "slicing.slice_ms": ms_per_batch("slicing.slice"),
        "slicing.rows_per_s": counts["input_nodes"] / own["slicing.slice"],
        "slicing.bytes_per_batch": counts["slice_bytes"] / batches,
        "slicing.share": own["slicing.slice"] / ledger_sum,
        "plan.build_ms": ms_per_batch("plan.build"),
        "plan.share": own["plan.build"] / ledger_sum,
        "transfer.ms": ms_per_batch("transfer.copy"),
        "transfer.bytes_per_batch": counts["transfer_bytes"] / batches,
        "transfer.effective_gbps": counts["transfer_bytes"] / own["transfer.copy"] / 1e9,
        "transfer.share": own["transfer.copy"] / ledger_sum,
        "compute.forward_ms": ms_per_batch("compute.forward"),
        "compute.backward_ms": ms_per_batch("compute.backward"),
        "compute.optimizer_ms": ms_per_batch("compute.optimizer"),
        "compute.share": own["compute"] / ledger_sum,
        "ledger.sum_s": ledger_sum,
        "ledger.serial_epoch_s": serial_epoch_s,
        "ledger.unaccounted_frac": (serial_epoch_s - ledger_sum) / serial_epoch_s,
        "pipeline.overlap_speedup": serial_epoch_s / epoch_s,
        "telemetry.tracer_overhead_frac": (traced_epoch_s - epoch_s) / epoch_s,
        "telemetry.spans_per_epoch": spans_per_epoch,
    }


class _HandDrivenLoop:
    """The serial policy spelled out call by call, a span around each call
    into a layer's public function."""

    def __init__(self, trainer: Trainer, seed: int) -> None:
        self.trainer = trainer
        self.seed = seed
        self.sampler = FastNeighborSampler(
            trainer.dataset.graph, list(trainer.config.train_fanouts)
        )
        self.workspace = Workspace()

    def epoch(self, epoch: int) -> tuple[SpanRecorder, dict]:
        """One epoch; its spans (root: "epoch") and its work counts."""
        trainer = self.trainer
        store, device = trainer.store, trainer.device
        model, optimizer = trainer.model, trainer.optimizer
        rec = SpanRecorder()
        tally = {"edges": 0, "input_nodes": 0, "slice_bytes": 0, "transfer_bytes": 0}
        with rec.span("epoch"):
            for index, nodes in enumerate(trainer.epoch_batches(epoch)):
                # the program's per-batch seeding policy: [seed, batch index]
                rng = np.random.default_rng(np.random.SeedSequence([self.seed, index]))
                with rec.span("batch", index):
                    with rec.span("sampling.sample", index):
                        mfg = self.sampler.sample(nodes, rng)
                    with rec.span("slicing.slice", index):
                        sliced = slice_batch_fused(store, mfg)
                    with rec.span("plan.build", index):
                        build_aggregation_plans(mfg)
                    with rec.span("transfer.copy", index):
                        batch = device.transfer_batch(sliced, index)
                    with rec.span("compute.step", index):
                        model.train()
                        optimizer.zero_grad()
                        x = Tensor(batch.xs.data)
                        with compute_scope(COMMON["compute"]), workspace_scope(self.workspace):
                            with rec.span("compute.forward", index):
                                out = model(x, batch.mfg.adjs)
                                loss = F.nll_loss(out, batch.ys.data)
                            with rec.span("compute.backward", index):
                                loss.backward()
                        with rec.span("compute.optimizer", index):
                            optimizer.step()
                tally["edges"] += mfg.total_edges()
                tally["input_nodes"] += len(mfg.n_id)
                tally["slice_bytes"] += sliced.xs.nbytes + sliced.ys.nbytes
                tally["transfer_bytes"] += sliced.nbytes()
        return rec, tally


def _tracer_on_epochs(workload: Workload, setup: SetUp, seed: int):
    """The workload's own policy with the program's tracer and probe sampler
    on: (median epoch seconds, spans per epoch)."""
    tracer = Tracer(enabled=True)
    probes = ProbeSampler(clock=tracer.now)
    trainer = make_trainer(
        workload, setup.dataset, seed, setup.slab_dir, tracer=tracer, probes=probes
    )
    try:
        with probes:
            trainer.train_epoch(0)
            spans_before = len(tracer.events)
            seconds = []
            for epoch in range(1, 1 + TRACED_EPOCHS):
                t0 = time.perf_counter()
                trainer.train_epoch(epoch)
                seconds.append(time.perf_counter() - t0)
    finally:
        trainer.shutdown()
    spans = (len(tracer.events) - spans_before) / TRACED_EPOCHS
    return statistics.median(seconds), spans


# ----------------------------------------------------------------------
# The whole run
# ----------------------------------------------------------------------
def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: int | None = None,
    smoke: bool = False,
    trace_out=None,
) -> dict:
    """Set up, measure, check and report one workload.

    ``trace=0``: end-to-end metrics only. ``trace=1``: the E untraced rounds
    (no added rounds, one set-up) plus the traced pass, per-layer metrics
    only. ``None``: both in full.
    """
    started = time.perf_counter()
    if smoke:
        workload = replace(workload, rounds=SMOKE["rounds"], setups=SMOKE["setups"])
    scale = SMOKE["scale"] if smoke else COMMON["scale"]
    full = trace != 1
    WORK_DIR.mkdir(exist_ok=True)
    shm_before = _shm_entries()

    setup = set_up(workload, seed, scale, "0")
    rounds = measure_rounds(
        setup, workload.rounds, seconds if full and not smoke else 0.0
    )
    peak_rss_mb = _tree_mib("VmHWM")
    checks = {"ops_failed_is_zero": rounds.failed == 0}
    if rounds.error:
        checks["error"] = rounds.error

    per_layer: dict = {}
    end_to_end: dict = {}
    target_epochs, target_round = 0.0, 0
    if not rounds.failed:
        checks.update(_check_outputs(workload, setup, rounds, seed))
        target_epochs, target_round = epochs_to_target(
            rounds.accuracy[: workload.rounds], workload.target
        )
        if not smoke:  # two half-size rounds are not expected to get there
            checks["target_reached"] = target_round > 0
        if trace != 0:
            per_layer = _run_level_layers(workload, setup, rounds, target_epochs)
            per_layer.update(
                traced_pass(workload, setup, seed, statistics.median(rounds.epoch_s), trace_out)
            )

    tear_down(setup)
    checks["no_live_children"] = not _worker_children()
    checks["no_new_shm_segments"] = _shm_entries() <= shm_before

    if not rounds.failed and full:
        setup_s = [setup.seconds["total"]]
        for repeat in range(1, workload.setups):
            again = set_up(workload, seed, scale, str(repeat))
            tear_down(again)
            setup_s.append(again.seconds["total"])
        end_to_end = _end_to_end(workload, setup, rounds, setup_s, peak_rss_mb)

    return {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "correct": all(v for v in checks.values() if isinstance(v, bool)),
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "end_to_end": _with_units(end_to_end),
        "per_layer": _with_units(per_layer),
        "checks": checks,
        "accuracy_by_round": rounds.accuracy,
        "epochs_to_target": target_epochs,
        "target_round": target_round,
        "wall_s": time.perf_counter() - started,
    }


_UNIT = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}


def _with_units(values: dict) -> dict:
    """``{name: number | summary}`` -> ``{name: {"value", "unit", ...}}``."""
    return {
        name: {**(v if isinstance(v, dict) else {"value": float(v)}), "unit": _UNIT[name]}
        for name, v in values.items()
    }


def _predict_as(trainer: Trainer, nodes, infer_executor: str):
    """``predict`` under another inference policy: (log-probs, seconds)."""
    restore, trainer.infer_executor = trainer.infer_executor, infer_executor
    try:
        t0 = time.perf_counter()
        log_probs = trainer.predict(nodes)
        return log_probs, time.perf_counter() - t0
    finally:
        trainer.infer_executor = restore


def _check_outputs(workload: Workload, setup: SetUp, rounds: Rounds, seed: int) -> dict:
    """Output checks on the finished rounds, outside every timed window."""
    serial_log_probs, _ = _predict_as(setup.trainer, setup.eval_nodes, "serial")
    reference = make_trainer(
        workload, setup.dataset, seed, setup.slab_dir,
        executor="serial", feature_tier="ram",
    )
    try:
        reference_losses = reference.train_epoch(0).losses
    finally:
        reference.shutdown()
    if len(reference_losses) == len(setup.warmup_losses):
        delta = float(
            np.max(np.abs(np.subtract(setup.warmup_losses, reference_losses)))
        )
    else:
        delta = float("inf")
    return {
        # the last measured predictions equal the serial inference policy's
        "predict_equals_serial": bool(
            np.array_equal(rounds.log_probs, serial_log_probs)
        ),
        # warm-up losses equal the serial/ram reference policy's (bitwise on
        # ram; within the quantization tolerance on the uint8 tier)
        "warmup_loss_max_delta": delta,
        "warmup_losses_match_serial_ram": delta <= workload.loss_tolerance,
        "losses_finite": rounds.losses_finite,
    }


def epochs_to_target(accuracy_by_round, target):
    """(epochs, crossing round): how many epochs the model has trained when
    eval accuracy reaches ``target``, the warm-up epoch included.

    The crossing round counts in proportion to where the target falls between
    the accuracy before and after it; whole rounds would jump by one epoch
    (15-25% of the value here) whenever a seed crosses a round earlier or
    later. Never reached: every round counts and the round is 0.
    """
    for index, acc in enumerate(accuracy_by_round):
        if acc >= target:
            share = 1.0  # accuracy before round 1 is not measured
            if index:
                before = accuracy_by_round[index - 1]
                share = (target - before) / (acc - before)
            return 1 + index + share, index + 1
    return 1 + len(accuracy_by_round), 0


def _end_to_end(workload, setup, rounds, setup_s, peak_rss_mb) -> dict:
    return {
        "setup_s": _summary(setup_s),
        "epoch_s": _summary(rounds.epoch_s),
        "epoch_cpu_s": _summary(rounds.epoch_cpu_s),
        "infer_nodes_per_s": len(setup.eval_nodes) / statistics.median(rounds.predict_s),
        # after round E, whatever extra rounds the time window added
        "eval_acc": rounds.accuracy[workload.rounds - 1],
        "peak_rss_mb": peak_rss_mb,
    }


def _run_level_layers(workload, setup, rounds, target_epochs) -> dict:
    """Layer numbers the public API already returns in the untraced run."""
    trainer = setup.trainer
    # Back to back and outside the rounds, so both sides of
    # infer.overlap_speedup run in the same process state.
    _, policy_predict_s = _predict_as(trainer, setup.eval_nodes, workload.infer_executor)
    _, serial_predict_s = _predict_as(trainer, setup.eval_nodes, "serial")

    def frac(stage: str) -> float:
        return statistics.median(
            [stats.breakdown().get(stage, 0.0) for stats in rounds.stats]
        )

    busy = statistics.median(
        [
            (s.sample_time + s.slice_time + s.plan_build_time)
            / (COMMON["num_workers"] * s.epoch_time)
            for s in rounds.stats
        ]
    )
    store = trainer.store
    hit_rate = getattr(store, "hit_rate", None)
    resident = getattr(store, "resident_bytes", None)
    resident_bytes = (
        resident() if resident is not None else store.features.nbytes + store.labels.nbytes
    )
    hits = trainer.metrics.value("workspace_hits")
    misses = trainer.metrics.value("workspace_misses")
    predict_s = statistics.median(rounds.predict_s)
    spills = trainer.counters.snapshot()
    return {
        "datasets.generate_s": setup.seconds["generate"],
        "datasets.slab_write_s": setup.seconds["slab_write"],
        "train.construct_s": setup.seconds["construct"],
        "train.warmup_epoch_s": setup.seconds["warmup_epoch"],
        "train.epochs_to_target": target_epochs,
        # Epochs needed times the median epoch, not the sum of the epochs as
        # they happened: a burst of host noise in an early epoch, or the
        # warm-up epoch's worker spawn and first-touch page faults, is not
        # how fast the model learns; set-up cost has its own metric.
        "train.time_to_target_s": target_epochs * statistics.median(rounds.epoch_s),
        "memory.rss_after_setup_mb": setup.rss_mb,
        "slicing.hot_hit_frac": hit_rate() if hit_rate is not None else 0.0,
        "slicing.mmap_wait_s": statistics.median([s.mmap_wait_s for s in rounds.stats]),
        "slicing.resident_mb": resident_bytes / _MIB,
        "compute.workspace_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "pipeline.prep_wait_frac": frac("prep_wait"),
        "pipeline.transfer_wait_frac": frac("transfer"),
        "pipeline.train_frac": frac("train"),
        "pipeline.worker_busy_frac": busy,
        "mp.worker_cpu_s": statistics.median(rounds.worker_cpu_s),
        "mp.result_wait_frac": statistics.median(
            [w / e for w, e in zip(rounds.result_wait_s, rounds.epoch_s)]
        ),
        "mp.spill_batches": spills.get("mp_slot_overflow_batches", 0)
        + spills.get("mp_mfg_overflow_batches", 0),
        "infer.eval_s": predict_s,
        "infer.batches_per_eval": math.ceil(
            len(setup.eval_nodes) / trainer.config.batch_size
        ),
        "infer.serial_nodes_per_s": len(setup.eval_nodes) / serial_predict_s,
        "infer.overlap_speedup": serial_predict_s / policy_predict_s,
    }
