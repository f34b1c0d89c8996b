"""Activation modules (stateless wrappers over tensor/functional ops)."""

from __future__ import annotations

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, require_tensor


class ReLU(Module):
    """Elementwise ``max(x, 0)``."""

    def forward(self, x) -> Tensor:
        return require_tensor(x).relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def forward(self, x) -> Tensor:
        return require_tensor(x).tanh()

    def __repr__(self) -> str:
        return "Tanh()"


class Sigmoid(Module):
    """Elementwise logistic sigmoid."""

    def forward(self, x) -> Tensor:
        return require_tensor(x).sigmoid()

    def __repr__(self) -> str:
        return "Sigmoid()"


class Softmax(Module):
    """Softmax along a configurable axis."""

    def __init__(self, axis: int = -1):
        super().__init__()
        self.axis = axis

    def forward(self, x) -> Tensor:
        return F.softmax(require_tensor(x), axis=self.axis)

    def __repr__(self) -> str:
        return f"Softmax(axis={self.axis})"


class LogSoftmax(Module):
    """Log-softmax along a configurable axis."""

    def __init__(self, axis: int = -1):
        super().__init__()
        self.axis = axis

    def forward(self, x) -> Tensor:
        return F.log_softmax(require_tensor(x), axis=self.axis)

    def __repr__(self) -> str:
        return f"LogSoftmax(axis={self.axis})"
