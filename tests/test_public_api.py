"""Every exported name resolves: a stale ``__all__`` entry left behind by a
deletion fails here instead of at some user's import — and the deleted
second telemetry sink stays out of every public signature."""

import importlib
import inspect

import pytest


@pytest.mark.parametrize("package", ["repro.runtime", "repro.telemetry", "repro.train"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


SINK_PACKAGES = [
    "repro.runtime",
    "repro.sampling",
    "repro.slicing",
    "repro.train",
    "repro.telemetry",
]


def _callables(obj):
    """``obj`` plus, for a class, its own public methods and ``__init__``."""
    yield obj
    if inspect.isclass(obj):
        for name, member in vars(obj).items():
            if callable(member) and (name == "__init__" or not name.startswith("_")):
                yield member


@pytest.mark.parametrize("package", SINK_PACKAGES)
def test_one_telemetry_sink_in_every_signature(package):
    """``MetricsRegistry`` is the only sink: no public callable takes a
    ``counters`` parameter and nothing grows an ``attach_counters`` back."""
    module = importlib.import_module(package)
    offenders = []
    for name in module.__all__:
        obj = getattr(module, name)
        if hasattr(obj, "attach_counters"):
            offenders.append(f"{name}.attach_counters")
        if not callable(obj):
            continue
        for fn in _callables(obj):
            try:
                parameters = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            if "counters" in parameters:
                offenders.append(f"{name}: {getattr(fn, '__qualname__', fn)}")
    assert offenders == []


def test_counters_class_is_gone():
    import repro.telemetry

    assert "Counters" not in repro.telemetry.__all__
    assert not hasattr(repro.telemetry, "Counters")
