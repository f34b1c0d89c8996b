"""First-order optimizers: SGD (with momentum / weight decay) and Adam."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.parameter import Parameter
from repro.utils.validation import check_in_range, check_positive


class Optimizer:
    """Base optimizer holding a concrete parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        check_positive("lr", lr)
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        check_positive("lr", lr)
        self.lr = float(lr)

    def _grads(self) -> List[np.ndarray]:
        """Gradients for every parameter; missing grads read as zero."""
        return [
            p.grad if p.grad is not None else np.zeros_like(p.data)
            for p in self.parameters
        ]


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        check_in_range("momentum", momentum, 0.0, 1.0, inclusive=(True, False))
        check_positive("weight_decay", weight_decay, strict=False)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for index, (param, grad) in enumerate(zip(self.parameters, self._grads())):
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel = self._velocity.get(index)
                if vel is None:
                    vel = np.zeros_like(param.data)
                vel = self.momentum * vel + grad
                self._velocity[index] = vel
                update = vel
            else:
                update = grad
            param.data -= self.lr * update


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015).

    The first and second moments are two flat vectors over all parameters
    (raveled in order), allocated at the first :meth:`step`.  Every update
    is elementwise, so one whole-vector pass is bit-identical to a
    per-parameter loop over the same expressions.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        check_in_range("beta1", beta1, 0.0, 1.0, inclusive=(True, False))
        check_in_range("beta2", beta2, 0.0, 1.0, inclusive=(True, False))
        check_positive("eps", eps)
        check_positive("weight_decay", weight_decay, strict=False)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    @property
    def step_count(self) -> int:
        """Number of :meth:`step` calls (drives bias correction)."""
        return self._step_count

    def _size(self) -> int:
        return sum(p.data.size for p in self.parameters)

    def flat_state(self) -> Dict[str, np.ndarray]:
        """First/second moments and step count as flat arrays.

        Before the first :meth:`step` the moments read as zeros, matching
        their lazy initialization.
        """
        if self._m is None:
            m = np.zeros(self._size())
            v = np.zeros(self._size())
        else:
            m = self._m.copy()
            v = self._v.copy()
        return {
            "m": m,
            "v": v,
            "step_count": np.array([self._step_count], dtype=np.int64),
        }

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        grad = np.concatenate([g.ravel() for g in self._grads()])
        if self.weight_decay:
            grad += self.weight_decay * np.concatenate(
                [p.data.ravel() for p in self.parameters]
            )
        if self._m is None:
            self._m = np.zeros_like(grad)
            self._v = np.zeros_like(grad)
        m, v = self._m, self._v
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        m += (1 - self.beta1) * grad
        # v = beta2 * v + (1 - beta2) * grad**2
        v *= self.beta2
        np.square(grad, out=grad)
        grad *= 1 - self.beta2
        v += grad
        # update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
        denom = np.divide(v, bias2, out=grad)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update = m / bias1
        update *= self.lr
        update /= denom
        offset = 0
        for param in self.parameters:
            data = param.data
            data -= update[offset : offset + data.size].reshape(data.shape)
            offset += data.size


class ExponentialLR:
    """Multiply the learning rate by ``gamma`` every ``every`` steps.

    The paper decays the PPO actor/critic learning rate by 5% every 20
    episodes; this scheduler reproduces that policy.
    """

    def __init__(self, optimizer: Optimizer, gamma: float, every: int = 1):
        check_in_range("gamma", gamma, 0.0, 1.0, inclusive=(False, True))
        check_positive("every", every)
        self.optimizer = optimizer
        self.gamma = float(gamma)
        self.every = int(every)
        self._ticks = 0

    def step(self) -> float:
        """Advance one tick; returns the (possibly updated) learning rate."""
        self._ticks += 1
        if self._ticks % self.every == 0:
            self.optimizer.set_lr(self.optimizer.lr * self.gamma)
        return self.optimizer.lr
