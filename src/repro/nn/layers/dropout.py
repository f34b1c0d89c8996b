"""Inverted dropout."""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn.module import Module, require_tensor
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_in_range


class Dropout(Module):
    """Inverted dropout: active in training mode, identity in eval mode.

    Kept units are scaled by ``1/(1-p)`` so eval-mode forward needs no
    rescaling — the same convention as ``torch.nn.Dropout``.
    """

    def __init__(self, p: float = 0.5, rng: RNGLike = None):
        super().__init__()
        check_in_range("p", p, 0.0, 1.0, inclusive=(True, False))
        self.p = float(p)
        self._rng = as_generator(rng)

    def forward(self, x) -> Tensor:
        x = require_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
