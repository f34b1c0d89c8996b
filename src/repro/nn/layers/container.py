"""Module containers."""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.layers.activations import Tanh
from repro.nn.layers.linear import Linear
from repro.nn.module import Module


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            if not isinstance(module, Module):
                raise TypeError(
                    f"Sequential accepts Module instances, got "
                    f"{type(module).__name__} at position {index}"
                )
            setattr(self, f"layer{index}", module)
        self._length = len(modules)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Module]:
        for index in range(self._length):
            yield getattr(self, f"layer{index}")

    def __getitem__(self, index: int) -> Module:
        if not -self._length <= index < self._length:
            raise IndexError(f"index {index} out of range for {self._length} layers")
        return getattr(self, f"layer{index % self._length}")

    def forward(self, x) -> Tensor:
        for module in self:
            x = module(x)
        return x

    def infer(
        self, x: np.ndarray, inputs: Optional[List[np.ndarray]] = None
    ) -> np.ndarray:
        """Graph-free forward of a ``Linear``/``Tanh`` net, numpy in and out.

        Runs ``x @ W.T``, ``+= b`` and an in-place ``tanh``: the same ufuncs
        in the same order as :meth:`forward`, so the output is bit-identical.
        When ``inputs`` is given, each ``Linear``'s input is appended to it
        (the observations, then each hidden activation) for a hand-written
        backward.  The caller's array is never written and the result is
        always a fresh array.  Any other layer type raises ``TypeError``.
        """
        owned = False  # whether ``x`` was allocated here
        for layer in self._modules.values():
            if type(layer) is Linear:
                if inputs is not None:
                    inputs.append(x)
                x = x @ layer.weight.data.T
                if layer.bias is not None:
                    x += layer.bias.data
            elif type(layer) is Tanh:
                x = np.tanh(x, out=x) if owned else np.tanh(x)
            else:
                raise TypeError(
                    f"Sequential.infer runs Linear and Tanh layers only, "
                    f"got {type(layer).__name__}"
                )
            owned = True
        return x if owned else x.copy()

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self)
        return f"Sequential({inner})"
