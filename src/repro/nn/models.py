"""Model zoo: the exact architectures from the paper's §VI-A.

* :class:`McMahanCNN` — the MNIST / Fashion-MNIST network: two 5×5 conv
  layers (10 then 20 channels), each followed by 2×2 max pooling, then two
  fully connected layers.  **21,840** trainable parameters, matching the
  count the paper reports.
* :class:`LeNet5` — the CIFAR-10 network: two 5×5 conv layers (6 then 16
  channels) with 2×2 max pooling and three fully connected layers.
  **62,006** trainable parameters, matching the paper.
* :class:`MLP` — a generic multi-layer perceptron used by tests and the RL
  substrate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.nn.layers import Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.nn.module import Module, require_tensor
from repro.utils.rng import RNGLike, spawn_generators

# Bytes of conv1 output a CNN computes at a time when it records no graph,
# like ``conv2d``'s ``_COLUMN_BYTES``.  Every feature op works per image
# (``conv2d`` makes one gemm per image, dropout draws in image order), so
# the chunks' features are the whole batch's bytes.  The classifier takes
# the whole batch: a gemm's row count changes its bits.
_FEATURE_BYTES = 2 * 1024 * 1024


def _features_by_chunk(model: Module, x: Tensor, image_bytes: int) -> Tensor:
    """``model._features(x)``, a chunk of images at a time when no graph is
    recorded.

    ``image_bytes`` is one image's conv1 output, the stack's largest
    activation.
    """
    if is_grad_enabled() and any(t.requires_grad for t in (x, *model.parameters())):
        return model._features(x)
    chunk = max(1, _FEATURE_BYTES // image_bytes)
    return Tensor(
        np.concatenate(
            [
                model._features(Tensor(x.data[start : start + chunk])).data
                for start in range(0, x.shape[0], chunk)
            ]
        )
    )


class McMahanCNN(Module):
    """CNN for 1×28×28 inputs (MNIST / Fashion-MNIST), 21,840 parameters."""

    NUM_PARAMETERS = 21_840

    def __init__(self, num_classes: int = 10, rng: RNGLike = None):
        super().__init__()
        rngs = spawn_generators(rng, 5)
        self.conv1 = Conv2d(1, 10, kernel_size=5, rng=rngs[0])
        self.conv2 = Conv2d(10, 20, kernel_size=5, rng=rngs[1])
        self.pool = MaxPool2d(2)
        self.dropout = Dropout(0.5, rng=rngs[2])
        self.fc1 = Linear(320, 50, rng=rngs[3])
        self.fc2 = Linear(50, num_classes, rng=rngs[4])

    def forward(self, x) -> Tensor:
        x = require_tensor(x)
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != (28, 28):
            raise ValueError(f"McMahanCNN expects (n, 1, 28, 28), got {x.shape}")
        x = _features_by_chunk(self, x, image_bytes=8 * 10 * 24 * 24)
        x = self.fc1(x).relu()
        return self.fc2(x)

    def _features(self, x: Tensor) -> Tensor:
        x = self.pool(self.conv1(x).relu())
        x = self.pool(self.dropout(self.conv2(x)).relu())
        return x.flatten(start_dim=1)


class LeNet5(Module):
    """LeNet variant for 3×32×32 inputs (CIFAR-10), 62,006 parameters."""

    NUM_PARAMETERS = 62_006

    def __init__(self, num_classes: int = 10, rng: RNGLike = None):
        super().__init__()
        rngs = spawn_generators(rng, 5)
        self.conv1 = Conv2d(3, 6, kernel_size=5, rng=rngs[0])
        self.conv2 = Conv2d(6, 16, kernel_size=5, rng=rngs[1])
        self.pool = MaxPool2d(2)
        self.fc1 = Linear(16 * 5 * 5, 120, rng=rngs[2])
        self.fc2 = Linear(120, 84, rng=rngs[3])
        self.fc3 = Linear(84, num_classes, rng=rngs[4])

    def forward(self, x) -> Tensor:
        x = require_tensor(x)
        if x.ndim != 4 or x.shape[1] != 3 or x.shape[2:] != (32, 32):
            raise ValueError(f"LeNet5 expects (n, 3, 32, 32), got {x.shape}")
        x = _features_by_chunk(self, x, image_bytes=8 * 6 * 28 * 28)
        x = self.fc1(x).relu()
        x = self.fc2(x).relu()
        return self.fc3(x)

    def _features(self, x: Tensor) -> Tensor:
        x = self.pool(self.conv1(x).relu())
        x = self.pool(self.conv2(x).relu())
        return x.flatten(start_dim=1)


class MLP(Module):
    """Configurable multi-layer perceptron over flat feature vectors."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        activation: str = "relu",
        rng: RNGLike = None,
    ):
        super().__init__()
        if activation not in ("relu", "tanh"):
            raise ValueError(f"unsupported activation {activation!r}")
        sizes = [int(in_features), *[int(h) for h in hidden], int(out_features)]
        rngs = spawn_generators(rng, len(sizes) - 1)
        layers = []
        for index, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(n_in, n_out, rng=rngs[index]))
        self.body = Sequential(*layers)
        self.activation = activation

    def forward(self, x) -> Tensor:
        x = require_tensor(x)
        layers = list(self.body)
        for layer in layers[:-1]:
            x = layer(x)
            x = x.relu() if self.activation == "relu" else x.tanh()
        return layers[-1](x)


def count_parameters(model: Module) -> int:
    """Number of scalar trainable parameters in ``model``."""
    return model.num_parameters()


_MODEL_REGISTRY = {
    "mcmahan_cnn": McMahanCNN,
    "lenet5": LeNet5,
}


def build_model(name: str, num_classes: int = 10, rng: RNGLike = None) -> Module:
    """Construct a registered model by name (``mcmahan_cnn`` or ``lenet5``)."""
    try:
        cls = _MODEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(_MODEL_REGISTRY)}"
        ) from None
    return cls(num_classes=num_classes, rng=rng)
