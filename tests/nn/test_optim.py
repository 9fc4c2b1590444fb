"""Optimizers: update rules and state handling."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor


def quadratic_param(value=5.0):
    return Tensor(np.array([value], dtype=np.float64), requires_grad=True)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # with bias correction, the first Adam step ~= lr * sign(grad)
        p = quadratic_param(0.0)
        opt = nn.Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.01], rtol=1e-5)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=4), requires_grad=True)
        ref = p.data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        opt = nn.Adam([p], lr=0.05, betas=(0.9, 0.99), eps=1e-8)
        for t in range(1, 6):
            grad = rng.normal(size=4)
            p.grad = grad.copy()
            opt.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.99 * v + 0.01 * grad * grad
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.99**t)
            ref -= 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            p.grad = None
        np.testing.assert_allclose(p.data, ref, rtol=1e-10)

    def test_minimizes_quadratic(self):
        p = quadratic_param(4.0)
        opt = nn.Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ((p + 2.0) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, [-2.0], atol=1e-3)

    def test_state_dict_roundtrip(self):
        p = quadratic_param()
        opt = nn.Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        state = opt.state_dict()

        p2 = quadratic_param()
        opt2 = nn.Adam([p2], lr=0.1)
        opt2.load_state_dict(state)
        assert opt2._step == 1
        np.testing.assert_allclose(opt2._m[0], opt._m[0])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([quadratic_param()], lr=-1.0)
