"""A Python scalar never widens a tensor: ``x * 2.0`` wrapped the scalar as
a 0-d float64 array, which upcasts float32 under NumPy 2 and put GIN
(``x_dst * (1.0 + eps)``) and SAGE-RI (``var + eps`` in batch norm) in
float64 from that op on."""

from dataclasses import replace

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.train import Trainer, get_config

SCALAR_FORMS = {
    "x * 2.0": lambda x: x * 2.0,
    "x + 1.0": lambda x: x + 1.0,
    "x - 1.0": lambda x: x - 1.0,
    "x / 2.0": lambda x: x / 2.0,
    "2.0 * x": lambda x: 2.0 * x,
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", SCALAR_FORMS)
def test_python_scalar_keeps_tensor_dtype(form, dtype):
    x = Tensor(np.ones(3, dtype=dtype), requires_grad=True)
    out = SCALAR_FORMS[form](x)
    assert out.dtype == dtype
    out.sum().backward()
    assert x.grad.dtype == dtype


def test_reflected_and_integer_forms():
    x = Tensor(np.full(3, 2.0, dtype=np.float32))
    for out in (1.0 - x, 1.0 / x, 1 + x, x * 2):
        assert out.dtype == np.float32
    np.testing.assert_array_equal((1.0 - x).data, [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal((1.0 / x).data, [0.5, 0.5, 0.5])
    # an integer tensor is not truncated to fit a Python float
    np.testing.assert_array_equal((Tensor(np.arange(3)) * 2.5).data, [0.0, 2.5, 5.0])


def test_array_operand_keeps_its_own_dtype():
    x = Tensor(np.ones(3, dtype=np.float32))
    assert (x * np.ones(3, dtype=np.float64)).dtype == np.float64
    assert (x * Tensor(np.ones(3, dtype=np.float64))).dtype == np.float64


@pytest.mark.parametrize("model", ["sage", "gat", "gin", "sage-ri"])
def test_training_step_computes_in_float32(model, tiny_dataset, monkeypatch):
    config = replace(
        get_config("papers", model),
        dataset="arxiv",
        batch_size=64,
        hidden_channels=16,
        num_layers=2,
        train_fanouts=(4, 4),
    )
    made = []
    make = Tensor._make

    def recording_make(data, parents, backward, op):
        made.append((op, data.dtype))
        return make(data, parents, backward, op)

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    trainer = Trainer(tiny_dataset, config, executor="serial", seed=0)
    try:
        batches = trainer.epoch_batches(0)[:1]
        trainer.train_batches(batches)
    finally:
        trainer.shutdown()
    assert "nll_loss" in {op for op, _ in made}
    assert {op for op, dtype in made if dtype != np.float32} == set()
    grads = {p.grad.dtype for p in trainer.model.parameters() if p.grad is not None}
    assert grads == {np.dtype(np.float32)}
