"""``F.linear`` computes no gradient for an input nothing reads.

A first layer's input is built from the batch features: a leaf off the
tape.  Its gradient would be dropped, so the fused linear backward skips
the ``g @ W`` gemm for it — and must leave the weight and bias gradients
bit-for-bit unchanged.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, kernels


@pytest.fixture()
def linear_backward_calls(monkeypatch):
    """Every ``kernels.linear_backward`` call's ``(x shape, grad_x)``."""
    calls = []
    real = kernels.linear_backward

    def spy(g, x, weight, **kwargs):
        result = real(g, x, weight, **kwargs)
        calls.append((x.shape, result[0]))
        return result

    monkeypatch.setattr(kernels, "linear_backward", spy)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("relu", [True, False])
def test_off_tape_input_skips_grad_x(linear_backward_calls, relu, bias, dtype):
    rng = np.random.default_rng(3)
    x_np = rng.normal(size=(12, 7)).astype(dtype)
    w_np = rng.normal(size=(5, 7)).astype(dtype)
    b_np = rng.normal(size=(5,)).astype(dtype)
    upstream = rng.normal(size=(12, 5)).astype(dtype)

    def run(x_on_tape):
        x = Tensor(x_np.copy(), requires_grad=x_on_tape)
        w = Tensor(w_np.copy(), requires_grad=True)
        b = Tensor(b_np.copy(), requires_grad=True) if bias else None
        lin = F.linear(x, w, b)
        # relu: an activation after the linear, as the models apply it
        out = lin.relu() if relu else lin
        returned = {id(t): grad for t, grad in lin._backward(upstream)}
        linear_backward_calls.clear()
        out.backward(upstream)
        (_, grad_x), = linear_backward_calls
        return x, w, b, grad_x, returned[id(x)]

    x_off, w_off, b_off, grad_x_off, returned_off = run(False)
    assert grad_x_off is None and returned_off is None
    assert x_off.grad is None

    x_on, w_on, b_on, grad_x_on, returned_on = run(True)
    assert grad_x_on is not None and returned_on is not None
    np.testing.assert_array_equal(x_on.grad, grad_x_on)

    np.testing.assert_array_equal(w_off.grad, w_on.grad)
    if bias:
        np.testing.assert_array_equal(b_off.grad, b_on.grad)


def test_intermediate_input_keeps_grad_x(linear_backward_calls):
    """An input with parents passes its gradient on: the gemm runs."""
    rng = np.random.default_rng(4)
    leaf = Tensor(rng.normal(size=(6, 3)).astype(np.float32), requires_grad=True)
    hidden = leaf * 2.0
    w = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    F.linear(hidden, w).sum().backward()
    (_, grad_x), = linear_backward_calls
    assert grad_x is not None
    assert leaf.grad is not None and np.abs(leaf.grad).sum() > 0
