"""Module base class: parameter registration, state dicts, train/eval mode."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from repro import obs as _obs
from repro.autograd.tensor import Tensor
from repro.nn.parameter import Parameter


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__`` and implement :meth:`forward`.  Registration is automatic
    through ``__setattr__`` (the same convention as ``torch.nn.Module``).
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_span_name", "nn." + type(self).__name__)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        params: Dict[str, Parameter] = self.__dict__.get("_parameters")
        modules: Dict[str, Module] = self.__dict__.get("_modules")
        if params is None or modules is None:
            raise AttributeError(
                "Module.__init__() must be called before assigning attributes"
            )
        params.pop(name, None)
        modules.pop(name, None)
        if isinstance(value, Parameter):
            params[name] = value
        elif isinstance(value, Module):
            modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # forward dispatch
    # ------------------------------------------------------------------ #
    def forward(self, *inputs):  # pragma: no cover - abstract
        raise NotImplementedError(
            f"{type(self).__name__} must implement forward()"
        )

    def __call__(self, *inputs):
        with _obs.span(self._span_name):
            return self.forward(*inputs)

    # ------------------------------------------------------------------ #
    # parameter iteration
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # modes
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. Dropout)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------ #
    # state dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of all parameter arrays, keyed by dotted name."""
        return OrderedDict(
            (name, param.data.copy()) for name, param in self.named_parameters()
        )

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict key match)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            param.copy_(state[name])

    def flat_parameters(self) -> np.ndarray:
        """All parameters concatenated into one 1-D vector (copy)."""
        chunks = [p.data.ravel() for p in self.parameters()]
        if not chunks:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(chunks)

    def load_flat_parameters(self, flat: np.ndarray) -> None:
        """Inverse of :meth:`flat_parameters`."""
        flat = np.asarray(flat, dtype=np.float64).ravel()
        expected = self.num_parameters()
        if flat.size != expected:
            raise ValueError(
                f"flat vector has {flat.size} values, model needs {expected}"
            )
        offset = 0
        for param in self.parameters():
            span = param.size
            param.copy_(flat[offset : offset + span].reshape(param.shape))
            offset += span

    def __repr__(self) -> str:
        children = ", ".join(
            f"{name}={type(mod).__name__}" for name, mod in self._modules.items()
        )
        return f"{type(self).__name__}({children})"


def require_tensor(value, name: str = "input") -> Tensor:
    """Coerce numpy input to a :class:`Tensor` (passes tensors through)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value))
