"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``train``    — train an architecture on a stand-in dataset under the
  serial (PyG-style), pipelined (SALIENT) or multiprocess policy,
  then evaluate with sampled inference.
- ``simulate`` — run the calibrated performance model: single-GPU epoch
  breakdown or multi-GPU scaling at paper scale.
- ``info``     — dataset statistics (the Table 4 view) for one or all
  stand-ins.
- ``timeline`` — trace a few mini-batches through the serial and pipelined
  policies and render Figure-1-style ASCII timelines.
- ``diagnose`` — bottleneck attribution for a ``run_report`` JSON: blocking
  shares, stall decomposition and the prep-/transfer-/compute-bound
  verdict.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .runtime.pipeline import (
    FEATURE_TIERS,
    INFER_POLICIES,
    POLICIES,
    SAMPLERS,
    START_METHODS,
    RuntimeConfig,
)

__all__ = ["main", "build_parser"]


def _num_workers(text: str) -> int:
    """``--num-workers``: rejected at parse time by the check
    :class:`RuntimeConfig` applies to every trainer."""
    try:
        return RuntimeConfig(num_workers=int(text)).num_workers
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SALIENT reproduction: fast sampling and pipelining for GNNs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a GNN through the SALIENT pipeline")
    train.add_argument("--dataset", default="products", help="arxiv|products|papers")
    train.add_argument("--model", default="sage", help="sage|gat|gin|sage-ri|mlp")
    train.add_argument("--scale", type=float, default=0.375)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--hidden", type=int, default=48)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--executor", choices=POLICIES, default="pipelined")
    train.add_argument(
        "--num-workers",
        type=_num_workers,
        default=RuntimeConfig.num_workers,
        metavar="N",
        help="batch-preparation threads (--executor pipelined) or processes "
        "(--executor multiprocess)",
    )
    train.add_argument(
        "--mp-start-method",
        choices=START_METHODS,
        default="spawn",
        help="multiprocessing start method for --executor multiprocess",
    )
    train.add_argument(
        "--infer-executor",
        choices=INFER_POLICIES,
        default="serial",
        help="executor policy for the post-training evaluation passes",
    )
    train.add_argument("--sampler", choices=list(SAMPLERS), default="fast")
    train.add_argument(
        "--feature-tier",
        choices=FEATURE_TIERS,
        default="ram",
        help="feature storage: in-RAM fp16 (ram), memory-mapped fp16 slab "
        "(mmap, byte-identical losses), or a uint8 quantized slab "
        "dequantized on transfer (mmap-quant)",
    )
    train.add_argument(
        "--slab-dir",
        default=None,
        metavar="DIR",
        help="directory for the on-disk feature slab (default: a "
        "temporary directory removed on exit)",
    )
    train.add_argument("--fanouts", type=int, nargs="+", default=None)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    train.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write a machine-readable run_report JSON artifact",
    )
    train.add_argument(
        "--probe-interval",
        type=float,
        default=10.0,
        metavar="MS",
        help="continuous-monitoring sampling period in milliseconds "
        "(0 disables the probe sampler; probes only run when --report-out "
        "or --trace-out is set)",
    )

    simulate = sub.add_parser("simulate", help="run the calibrated performance model")
    simulate.add_argument("--dataset", default="papers")
    simulate.add_argument(
        "--config", choices=["pyg", "salient"], default="salient",
        help="pipeline configuration to simulate",
    )
    simulate.add_argument("--gpus", type=int, default=1)
    simulate.add_argument("--model", default="sage")

    info = sub.add_parser("info", help="dataset statistics (Table 4 view)")
    info.add_argument("--dataset", default=None, help="one dataset, or all if omitted")
    info.add_argument("--scale", type=float, default=1.0)

    timeline = sub.add_parser("timeline", help="render Figure-1-style timelines")
    timeline.add_argument("--dataset", default="products")
    timeline.add_argument("--scale", type=float, default=0.375)
    timeline.add_argument("--batches", type=int, default=6)

    diagnose = sub.add_parser(
        "diagnose", help="bottleneck attribution for a run_report JSON"
    )
    diagnose.add_argument("report", help="path to a run_report JSON artifact")
    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.datasets import get_dataset
    from repro.telemetry import ProbeSampler, Tracer
    from repro.train import Trainer, get_config
    from repro.train.config import ExperimentConfig
    from repro.train.loop import TrainResult

    dataset = get_dataset(args.dataset, scale=args.scale, seed=args.seed)
    try:
        base = get_config(args.dataset, args.model)
    except KeyError:
        base = ExperimentConfig(dataset=args.dataset, model=args.model)
    config = replace(
        base,
        batch_size=args.batch_size,
        hidden_channels=args.hidden,
        lr=args.lr,
        **(
            {
                "train_fanouts": tuple(args.fanouts),
                # inference depth must match the model depth
                "infer_fanouts": tuple([20] * len(args.fanouts)),
                "num_layers": len(args.fanouts),
            }
            if args.fanouts
            else {}
        ),
    )
    print(f"dataset: {dataset}")
    print(
        f"model: {config.model} layers={config.num_layers} "
        f"hidden={config.hidden_channels} fanouts={config.train_fanouts}"
    )
    tracer = Tracer(enabled=args.trace_out is not None)
    # Continuous monitoring only pays off when its series land somewhere:
    # enable the sampler exactly when an artifact is requested.
    want_probes = (
        args.probe_interval > 0
        and (args.report_out is not None or args.trace_out is not None)
    )
    probes = ProbeSampler(
        interval=max(args.probe_interval, 0.001) / 1000.0,
        enabled=want_probes,
        clock=tracer.now,  # one time axis for spans and counter tracks
    )
    trainer = Trainer(
        dataset,
        config,
        executor=args.executor,
        sampler=args.sampler,
        num_workers=args.num_workers,
        seed=args.seed,
        tracer=tracer,
        infer_executor=args.infer_executor,
        probes=probes,
        mp_start_method=args.mp_start_method,
        feature_tier=args.feature_tier,
        slab_dir=args.slab_dir,
    )
    result = TrainResult()
    with probes:
        for epoch in range(args.epochs):
            stats = trainer.train_epoch(epoch)
            result.epoch_stats.append(stats)
            print(
                f"epoch {epoch:3d}: loss={np.mean(stats.losses):.4f} "
                f"time={stats.epoch_time * 1000:.0f}ms"
            )
    val_acc = trainer.evaluate("val")
    test_acc = trainer.evaluate("test")
    print(f"val accuracy:  {val_acc:.4f}")
    print(f"test accuracy: {test_acc:.4f}")
    if result.epoch_stats:
        print(f"bottleneck: {result.epoch_stats[-1].attribution(tracer).detail}")
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out, probes=probes if want_probes else None)
        print(f"trace written to {args.trace_out}")
    if args.report_out:
        report = trainer.build_report(result)
        report.add_evaluation("val", val_acc)
        report.add_evaluation("test", test_acc)
        report.write(args.report_out)
        print(f"run report written to {args.report_out}")
    trainer.shutdown()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.perfmodel import (
        CONFIG_PYG,
        CONFIG_SALIENT,
        scaling_curve,
        simulate_cluster_epoch,
        simulate_epoch,
    )
    from repro.telemetry import format_table

    config = CONFIG_SALIENT if args.config == "salient" else CONFIG_PYG
    if args.gpus == 1:
        b = simulate_epoch(args.dataset, config)
        rows = [
            {
                "dataset": b.dataset,
                "config": b.config,
                "epoch_s": round(b.epoch_time, 2),
                "prep_s": round(b.prep_blocking, 2),
                "transfer_s": round(b.transfer_blocking, 2),
                "train_s": round(b.train_time, 2),
                "gpu_util": round(b.gpu_utilization, 2),
            }
        ]
        print(format_table(rows, title="Simulated single-GPU epoch (paper scale)"))
    else:
        points = scaling_curve(
            args.dataset,
            tuple(sorted({1, args.gpus} | {2, 4, 8} & set(range(args.gpus + 1)))),
            config,
            model=args.model,
        )
        rows = [
            {
                "gpus": p.num_gpus,
                "epoch_s": round(p.epoch_time, 2),
                "speedup": round(p.speedup_vs_1gpu, 2),
            }
            for p in points
        ]
        print(format_table(rows, title=f"Simulated scaling ({args.dataset}, {args.model})"))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.datasets import available_datasets, get_dataset
    from repro.telemetry import format_table

    names = [args.dataset] if args.dataset else available_datasets()
    rows = [get_dataset(name, scale=args.scale).summary_row() for name in names]
    print(format_table(rows, title=f"Datasets (scale={args.scale})"))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.datasets import get_dataset
    from repro.telemetry import render_timeline
    from repro.train import figure1_timelines

    dataset = get_dataset(args.dataset, scale=args.scale, seed=0)
    for title, tracer, stats in figure1_timelines(dataset, args.batches):
        print(
            f"{title} - epoch {stats.epoch_time * 1000:.0f} ms, "
            f"GPU busy {100 * tracer.gpu_utilization():.0f}%"
        )
        print(render_timeline(tracer, width=96) + "\n")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import attribute_report, render_attribution

    try:
        with open(args.report) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"diagnose: cannot read {args.report}: {exc}", file=sys.stderr)
        return 2
    if doc.get("bench") != "run_report":
        print(
            f"diagnose: {args.report} is not a run_report artifact "
            f"(bench={doc.get('bench')!r})",
            file=sys.stderr,
        )
        return 2
    try:
        attribution = attribute_report(doc)
    except ValueError as exc:
        print(f"diagnose: {exc}", file=sys.stderr)
        return 2
    config = doc.get("config") or {}
    print(
        f"run: {doc.get('command')} executor={config.get('executor')} "
        f"sampler={config.get('sampler')} epochs={len(doc.get('epochs') or [])}"
    )
    print(render_attribution(attribution, epochs=doc.get("epochs")))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "simulate": _cmd_simulate,
    "info": _cmd_info,
    "timeline": _cmd_timeline,
    "diagnose": _cmd_diagnose,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
