"""Reverse-mode automatic differentiation on numpy arrays.

This subpackage replaces the role PyTorch's autograd plays in the paper's
implementation.  :class:`~repro.autograd.tensor.Tensor` wraps a numpy array
and records the operations applied to it; calling :meth:`Tensor.backward`
propagates gradients through the recorded graph.

The op set is exactly what the rest of the library needs: dense linear
algebra, elementwise math, reductions, shape manipulation, and the
image-specific primitives (``im2col``-based convolution, max pooling) that
live in :mod:`repro.autograd.functional`.
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled, tensor
from repro.autograd import functional
from repro.autograd.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "gradcheck",
]
