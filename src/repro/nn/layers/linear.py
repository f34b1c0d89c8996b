"""Fully connected layer."""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, require_tensor
from repro.nn.parameter import Parameter
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_positive


class Linear(Module):
    """Affine map ``y = x W^T + b``.

    Parameters follow the PyTorch layout: ``weight (out_features,
    in_features)``, ``bias (out_features,)``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: RNGLike = None,
    ):
        super().__init__()
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        gen = as_generator(rng)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        weight_shape = (self.out_features, self.in_features)
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng=gen))
        self.bias = (
            Parameter(init.bias_uniform(weight_shape, self.out_features, rng=gen))
            if bias
            else None
        )

    def forward(self, x) -> Tensor:
        x = require_tensor(x)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got {x.shape}"
            )
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"Linear(in_features={self.in_features}, "
            f"out_features={self.out_features}, bias={self.bias is not None})"
        )
