"""2-D convolution layer."""

from __future__ import annotations

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, require_tensor
from repro.nn.parameter import Parameter
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_int, check_positive


class Conv2d(Module):
    """Cross-correlation layer matching ``torch.nn.Conv2d`` semantics."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: RNGLike = None,
    ):
        super().__init__()
        check_positive("in_channels", in_channels)
        check_positive("out_channels", out_channels)
        gen = as_generator(rng)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = check_int("kernel_size", kernel_size, 1)
        self.stride = check_int("stride", stride, 1)
        self.padding = check_int("padding", padding, 0)
        weight_shape = (
            self.out_channels,
            self.in_channels,
            self.kernel_size,
            self.kernel_size,
        )
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng=gen))
        self.bias = (
            Parameter(init.bias_uniform(weight_shape, self.out_channels, rng=gen))
            if bias
            else None
        )

    def forward(self, x) -> Tensor:
        x = require_tensor(x)
        return F.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )
