"""Optimizer math against hand-computed references."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Parameter
from repro.nn.optim import ExponentialLR, Optimizer


def make_param(values):
    p = Parameter(np.asarray(values, dtype=float))
    return p


class TestSGD:
    def test_plain_step(self):
        p = make_param([1.0, 2.0])
        p.grad = np.array([0.5, -0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_missing_grad_is_zero(self):
        p = make_param([1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_weight_decay(self):
        p = make_param([2.0])
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_zero_grad(self):
        p = make_param([1.0])
        p.grad = np.array([1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_validation(self):
        p = make_param([1.0])
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # With bias correction, the first Adam step ≈ lr * sign(grad).
        p = make_param([0.0])
        p.grad = np.array([3.0])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-6)

    @staticmethod
    def reference_adam(values, grads, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        """Per-parameter Adam with :meth:`Adam.step`'s expressions, in order."""
        beta1, beta2 = betas
        params = [x.copy() for x in values]
        m = [np.zeros_like(x) for x in values]
        v = [np.zeros_like(x) for x in values]
        for t, step_grads in enumerate(grads, start=1):
            bias1 = 1.0 - beta1**t
            bias2 = 1.0 - beta2**t
            for i, g in enumerate(step_grads):
                g = np.zeros_like(params[i]) if g is None else g
                if weight_decay:
                    g = g + weight_decay * params[i]
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v[i] = beta2 * v[i] + (1 - beta2) * g**2
                m_hat = m[i] / bias1
                v_hat = v[i] / bias2
                params[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        return params

    def test_matches_reference_impl(self, rng):
        shapes = [(3, 4), (4,), (1,), (2, 1, 3)]
        values = [rng.normal(size=shape) for shape in shapes]
        grads = [[rng.normal(size=shape) for shape in shapes] for _ in range(6)]
        for step in (1, 4):  # parameter 2 misses its grad on some steps
            grads[step][2] = None
        for weight_decay in (0.0, 0.01):
            expected = self.reference_adam(values, grads, 0.05, weight_decay)
            params = [make_param(v.copy()) for v in values]
            opt = Adam(params, lr=0.05, weight_decay=weight_decay)
            for step_grads in grads:
                for p, g in zip(params, step_grads):
                    p.grad = None if g is None else g.copy()
                opt.step()
            for p, want in zip(params, expected):
                np.testing.assert_array_equal(p.data, want)

    def test_weight_decay(self):
        p = make_param([1.0])
        p.grad = np.array([0.0])
        Adam([p], lr=0.1, weight_decay=1.0).step()
        assert p.data[0] < 1.0

    def test_validation(self):
        p = make_param([1.0])
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, betas=(1.0, 0.999))
        with pytest.raises(ValueError):
            Adam([p], lr=0.1, eps=0.0)


class TestSetLr:
    def test_set_lr(self):
        p = make_param([1.0])
        opt = SGD([p], lr=0.1)
        opt.set_lr(0.01)
        assert opt.lr == 0.01
        with pytest.raises(ValueError):
            opt.set_lr(-1.0)


class TestExponentialLR:
    def test_decays_every_n(self):
        p = make_param([1.0])
        opt = SGD([p], lr=1.0)
        sched = ExponentialLR(opt, gamma=0.5, every=2)
        sched.step()
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == 0.5
        sched.step()
        sched.step()
        assert opt.lr == 0.25

    def test_paper_schedule(self):
        # 5% decay every 20 episodes (§VI-A).
        p = make_param([1.0])
        opt = SGD([p], lr=3e-5)
        sched = ExponentialLR(opt, gamma=0.95, every=20)
        for _ in range(40):
            sched.step()
        assert opt.lr == pytest.approx(3e-5 * 0.95**2)

    def test_validation(self):
        p = make_param([1.0])
        opt = SGD([p], lr=1.0)
        with pytest.raises(ValueError):
            ExponentialLR(opt, gamma=0.0)
        with pytest.raises(ValueError):
            ExponentialLR(opt, gamma=0.5, every=0)
