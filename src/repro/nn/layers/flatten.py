"""Flatten layer."""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn.module import Module, require_tensor


class Flatten(Module):
    """Flatten all dimensions after ``start_dim`` into one axis."""

    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = int(start_dim)

    def forward(self, x) -> Tensor:
        return require_tensor(x).flatten(start_dim=self.start_dim)

    def __repr__(self) -> str:
        return f"Flatten(start_dim={self.start_dim})"
