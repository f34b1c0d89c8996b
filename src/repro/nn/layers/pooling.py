"""Pooling layers."""

from __future__ import annotations

from typing import Optional

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, require_tensor
from repro.utils.validation import check_int


class MaxPool2d(Module):
    """Max pooling; stride defaults to the kernel size (non-overlapping)."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = check_int("kernel_size", kernel_size, 1)
        self.stride = (
            check_int("stride", stride, 1) if stride is not None else self.kernel_size
        )

    def forward(self, x) -> Tensor:
        return F.max_pool2d(require_tensor(x), self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    """Average pooling; stride defaults to the kernel size."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = check_int("kernel_size", kernel_size, 1)
        self.stride = (
            check_int("stride", stride, 1) if stride is not None else self.kernel_size
        )

    def forward(self, x) -> Tensor:
        return F.avg_pool2d(require_tensor(x), self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride})"
