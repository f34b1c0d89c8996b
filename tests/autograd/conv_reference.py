"""The fancy-index ``im2col`` and the ``np.add.at`` max-pool backward: the reference.

``repro.autograd.functional`` builds its image kernels from one strided
slice per kernel offset ``(di, dj)``.  These are the kernels it replaced:
:func:`reference_im2col` gathers every window through precomputed index
arrays and scatters the gradient back with ``np.add.at``;
:func:`reference_max_pool2d` stacks the offsets' slices, takes ``argmax``
over the stack and routes each window's gradient to its argmax with
``nonzero`` + ``np.add.at``.  ``test_conv_kernels_exact.py`` requires the
slice kernels to reproduce both byte for byte.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.functional import IntPair, _pair, conv_output_size
from repro.autograd.tensor import Tensor


def _im2col_index_arrays(
    channels: int,
    height: int,
    width: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


def reference_im2col(
    x: Tensor,
    kernel: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """``im2col`` as a fancy-index gather, with an ``np.add.at`` col2im backward."""
    kernel = _pair(kernel, "kernel")
    stride = _pair(stride, "stride")
    padding = _pair(padding, "padding", 0)
    n, c, h, w = x.shape
    ph, pw = padding
    k, i, j, out_h, out_w = _im2col_index_arrays(c, h, w, kernel, stride, padding)

    padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    cols = padded[:, k, i, j]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=np.float64)
        np.add.at(grad_padded, (slice(None), k, i, j), grad)
        if ph or pw:
            grad_x = grad_padded[:, :, ph : ph + h, pw : pw + w]
        else:
            grad_x = grad_padded
        x._accumulate(grad_x, owned=True)

    return Tensor._make(cols, (x,), "im2col", backward)


def reference_max_pool2d(
    x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None
) -> Tensor:
    """Max pooling whose backward scatters with ``nonzero`` + ``np.add.at``."""
    kh, kw = _pair(kernel, "kernel")
    sh, sw = _pair(stride if stride is not None else (kh, kw), "stride")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, sh, 0)
    out_w = conv_output_size(w, kw, sw, 0)

    planes = np.empty((kh * kw, n, c, out_h, out_w), dtype=np.float64)
    for idx in range(kh * kw):
        di, dj = divmod(idx, kw)
        planes[idx] = x.data[
            :, :, di : di + sh * out_h : sh, dj : dj + sw * out_w : sw
        ]
    arg = planes.argmax(axis=0)
    out_data = np.take_along_axis(planes, arg[None], axis=0)[0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        for idx in range(kh * kw):
            di, dj = divmod(idx, kw)
            mask = arg == idx
            if not mask.any():
                continue
            n_i, c_i, oh_i, ow_i = np.nonzero(mask)
            rows = oh_i * sh + di
            cols_ = ow_i * sw + dj
            np.add.at(grad_x, (n_i, c_i, rows, cols_), grad[mask])
        x._accumulate(grad_x, owned=True)

    return Tensor._make(out_data, (x,), "max_pool2d", backward)
