"""Every exported name resolves: a stale ``__all__`` entry left behind by a
deletion fails here instead of at some user's import."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["repro.runtime", "repro.telemetry", "repro.train"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
