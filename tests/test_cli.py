"""Command-line interface smoke tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "products"
        assert args.executor == "pipelined"

    def test_fanout_override(self):
        args = build_parser().parse_args(["train", "--fanouts", "10", "5"])
        assert args.fanouts == [10, 5]


    def test_num_workers_flag(self, capsys):
        assert build_parser().parse_args(["train"]).num_workers == 2
        args = build_parser().parse_args(["train", "--num-workers", "3"])
        assert args.num_workers == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        assert "--num-workers" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-1", "two"])
    def test_bad_num_workers_is_an_error(self, count, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--num-workers", count])
        assert excinfo.value.code == 2
        assert "--num-workers" in capsys.readouterr().err

    def test_no_compute_flag(self, capsys):
        """One kernel generation: nothing to select on the command line."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--compute", "legacy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        assert "--compute" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--executor", "staged"],
            ["--infer-executor", "staged"],
            ["--prepare-workers", "2"],
            ["--hot-rows", "100"],
        ],
        ids=lambda argv: argv[0].lstrip("-"),
    )
    def test_retired_policy_and_worker_flag(self, argv, capsys):
        """Three policies, one worker count, one cold tier: the ``staged``
        row, ``--prepare-workers`` and ``--hot-rows`` are argparse errors and
        absent from --help."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", *argv])
        assert excinfo.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        help_text = capsys.readouterr().out
        assert "staged" not in help_text
        assert "--prepare-workers" not in help_text
        assert "--hot-rows" not in help_text


class TestCommands:
    def test_info_all(self, capsys):
        assert main(["info", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "arxiv" in out and "products" in out and "papers" in out

    def test_info_single(self, capsys):
        assert main(["info", "--dataset", "arxiv", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "arxiv" in out and "products" not in out

    def test_simulate_single_gpu(self, capsys):
        assert main(["simulate", "--dataset", "products", "--gpus", "1"]) == 0
        out = capsys.readouterr().out
        assert "gpu_util" in out

    def test_simulate_scaling(self, capsys):
        assert main(["simulate", "--dataset", "papers", "--gpus", "16"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_train_tiny(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "arxiv",
                "--scale",
                "0.1",
                "--epochs",
                "1",
                "--batch-size",
                "32",
                "--hidden",
                "8",
                "--fanouts",
                "4",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out

    def test_timeline(self, capsys):
        assert main(
            ["timeline", "--dataset", "arxiv", "--scale", "0.25", "--batches", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "SALIENT" in out and "legend" in out
