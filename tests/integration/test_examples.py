"""Smoke tests: the quick runnable examples must execute end-to-end.

(The two long-running studies — inference_fanout_study and
multi_gpu_scaling — are exercised indirectly by the benchmark suite, which
covers the same code paths at controlled sizes.)
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

QUICK_EXAMPLES = [
    "quickstart.py",
    "custom_dataset.py",
    "diagnose_bottleneck.py",
]


@pytest.mark.parametrize("script", QUICK_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_quickstart_reports_accuracy():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "sampled inference" in result.stdout
    assert "test=" in result.stdout
