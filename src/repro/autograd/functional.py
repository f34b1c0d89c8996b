"""Composite and image-specific differentiable functions.

Everything here consumes and returns :class:`~repro.autograd.tensor.Tensor`
objects.  ``im2col`` copies every sliding window into one column block in
a single in-order pass (convolution is then a matrix product).  When no
graph is recorded, ``conv2d`` lowers as many images as fit in
``_COLUMN_BYTES`` (at least one) at a time into one reused block and
multiplies each chunk into its rows of the output: numpy's broadcasting
matmul makes one gemm call per image either way, so the result is
byte-identical to multiplying the whole batch's columns, which only a
backward needs.  The other
image kernels visit one strided slice per kernel offset ``(di, dj)``:
``im2col``'s backward adds each offset's gradient block back into that
offset's slice of the padded input.  ``max_pool2d`` keeps a
running first maximum over the offsets' slices, updating the best value
by bit select under int64 words of all ones, so no data-dependent mask
picks a branch.  When a graph is recorded it tracks each window's
winning offset the same way, and its backward adds, per offset, the
gradient where that offset won and ``+0.0`` elsewhere; without one it
keeps no offsets, as ``Tensor.relu`` then builds no mask.  Every input
element sums its gradient terms from ``+0.0`` in ``(di, dj)`` order.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.tensor import Tensor, is_grad_enabled

IntPair = Union[int, Tuple[int, int]]

# Bytes of columns ``conv2d`` lowers at a time when it records no graph:
# one core's L2 cache on a 2-vCPU x86-64 host.
_COLUMN_BYTES = 2 * 1024 * 1024


def _pair(value: IntPair, name: str, minimum: int = 1) -> Tuple[int, int]:
    """``value`` as an ``(h, w)`` pair, each entry at least ``minimum``."""
    pair = (value, value) if isinstance(value, int) else tuple(int(v) for v in value)
    if len(pair) != 2 or any(v < minimum for v in pair):
        raise ValueError(
            f"{name} must be an int >= {minimum} or a pair of them, got {value}"
        )
    return pair  # type: ignore[return-value]


def _window(
    di: int, dj: int, stride: Tuple[int, int], out_h: int, out_w: int
) -> Tuple[slice, slice, slice, slice]:
    """Index of kernel offset ``(di, dj)``'s element in every output window."""
    sh, sw = stride
    return (
        slice(None),
        slice(None),
        slice(di, di + sh * out_h, sh),
        slice(dj, dj + sw * out_w, sw),
    )


def _lower(
    data: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: np.ndarray,
) -> None:
    """Copy every window of ``data`` ``(n, c, h, w)`` into ``out``.

    ``out`` is the ``(n, c, kh, kw, out_h, out_w)`` column block.  One copy
    writes it front to back: a copy per offset writes short runs far
    apart, which is slow once the block has left the cache.
    """
    ph, pw = padding
    if ph or pw:
        data = np.pad(data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    sh, sw = stride
    windows = sliding_window_view(data, kernel, axis=(2, 3))[:, :, ::sh, ::sw]
    np.copyto(out, windows.transpose(0, 1, 4, 5, 2, 3))


def _words(mask: np.ndarray) -> np.ndarray:
    """``mask`` as int64 words: all ones where it holds, zero elsewhere."""
    words = mask.astype(np.int64)
    np.negative(words, out=words)
    return words


# --------------------------------------------------------------------------- #
# numerically stable softmax family
# --------------------------------------------------------------------------- #
def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Differentiable, numerically stable ``log(sum(exp(x)))``."""
    x_max = Tensor(x.data.max(axis=axis, keepdims=True))  # constant shift
    shifted = x - x_max
    out = shifted.exp().sum(axis=axis, keepdims=True).log() + x_max
    if not keepdims:
        out = out.reshape(tuple(np.squeeze(np.empty(out.shape), axis=axis).shape))
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax along ``axis`` (stable)."""
    x_max = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - x_max
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable)."""
    return log_softmax(x, axis=axis).exp()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(n,)`` to a one-hot float matrix ``(n, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must be in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` ``(n, c)`` and integer labels."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be (n, classes), got {logits.shape}")
    log_probs = log_softmax(logits, axis=1)
    targets = one_hot(labels, logits.shape[1])
    return -(log_probs * Tensor(targets)).sum() * (1.0 / logits.shape[0])


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log likelihood given precomputed log-probabilities."""
    targets = one_hot(labels, log_probs.shape[1])
    return -(log_probs * Tensor(targets)).sum() * (1.0 / log_probs.shape[0])


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


# --------------------------------------------------------------------------- #
# im2col convolution and pooling
# --------------------------------------------------------------------------- #
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output extent of a conv/pool along one spatial axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid conv geometry: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col(
    x: Tensor,
    kernel: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """Lower sliding windows of ``x`` ``(n, c, h, w)`` into columns.

    Returns a tensor of shape ``(n, c*kh*kw, out_h*out_w)``; the backward
    pass (``col2im``) adds gradients back, summing overlaps.
    """
    if x.ndim != 4:
        raise ValueError(f"im2col expects (n, c, h, w), got {x.shape}")
    kh, kw = _pair(kernel, "kernel")
    stride = _pair(stride, "stride")
    ph, pw = _pair(padding, "padding", 0)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride[0], ph)
    out_w = conv_output_size(w, kw, stride[1], pw)

    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=np.float64)
    _lower(x.data, (kh, kw), stride, (ph, pw), cols)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad = grad.reshape(n, c, kh, kw, out_h, out_w)
        grad_padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=np.float64)
        for di in range(kh):
            for dj in range(kw):
                window = grad_padded[_window(di, dj, stride, out_h, out_w)]
                window += grad[:, :, di, dj]
        # grad_padded is freshly allocated here, so the (view of the)
        # summed gradient can be adopted without a defensive copy.
        x._accumulate(grad_padded[:, :, ph : ph + h, pw : pw + w], owned=True)

    cols = cols.reshape(n, c * kh * kw, out_h * out_w)
    return Tensor._make(cols, (x,), "im2col", backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation, matching ``torch.nn.functional.conv2d``.

    Shapes: ``x (n, c_in, h, w)``, ``weight (c_out, c_in, kh, kw)``,
    ``bias (c_out,)`` → output ``(n, c_out, out_h, out_w)``.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be 4-D, got {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d weight must be 4-D, got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, weight expects {weight.shape[1]}"
        )
    stride_p = _pair(stride, "stride")
    padding_p = _pair(padding, "padding", 0)
    out_c, in_c, kh, kw = weight.shape
    kernel = _pair((kh, kw), "kernel")
    n = x.shape[0]
    out_h = conv_output_size(x.shape[2], kh, stride_p[0], padding_p[0])
    out_w = conv_output_size(x.shape[3], kw, stride_p[1], padding_p[1])
    if bias is not None and bias.shape != (out_c,):
        raise ValueError(f"bias must be ({out_c},), got {bias.shape}")

    rows = in_c * kh * kw
    inputs = (x, weight) if bias is None else (x, weight, bias)
    if not (is_grad_enabled() and any(t.requires_grad for t in inputs)):
        # No backward will read the columns: lower a few images at a time
        # into one reused block, each chunk's product into its own rows.
        chunk = max(1, _COLUMN_BYTES // max(1, 8 * rows * out_h * out_w))
        block = np.empty((min(chunk, n), in_c, kh, kw, out_h, out_w))
        w_mat = weight.data.reshape(out_c, rows)
        out = np.empty((n, out_c, out_h * out_w))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            cols = block[: stop - start]
            _lower(x.data[start:stop], kernel, stride_p, padding_p, cols)
            np.matmul(
                w_mat,
                cols.reshape(stop - start, rows, out_h * out_w),
                out=out[start:stop],
            )
        if bias is not None:
            out += bias.data.reshape(1, out_c, 1)
        return Tensor(out.reshape(n, out_c, out_h, out_w))

    w_mat = weight.reshape(out_c, rows)  # (c_out, c*kh*kw)
    # Broadcasting matmul over the (n, c*kh*kw, L) columns -> (n, c_out, L).
    out = w_mat @ im2col(x, (kh, kw), stride_p, padding_p)
    out = out.reshape(n, out_c, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, out_c, 1, 1)
    return out


def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over non-overlapping or strided windows.

    Gradient is routed to the first maximum of each window, the same
    tie-break PyTorch uses; a NaN counts as the maximum and the first NaN
    wins, as in numpy's arg-max.
    """
    if x.ndim != 4:
        raise ValueError(f"max_pool2d expects (n, c, h, w), got {x.shape}")
    kh, kw = _pair(kernel, "kernel")
    stride = _pair(stride if stride is not None else (kh, kw), "stride")
    out_h = conv_output_size(x.shape[2], kh, stride[0], 0)
    out_w = conv_output_size(x.shape[3], kw, stride[1], 0)
    windows = [
        _window(di, dj, stride, out_h, out_w) for di in range(kh) for dj in range(kw)
    ]

    # Running first maximum: a later offset takes over where it is greater,
    # or NaN while the best so far is not.  The copy keeps a 1x1 stride-1
    # pool from writing into x.  Only a backward reads the winning offsets.
    out_data = x.data[windows[0]].copy()
    best_bits = out_data.view(np.int64)
    record = is_grad_enabled() and x.requires_grad
    arg = np.zeros(out_data.shape, dtype=np.int64) if record else None
    for idx in range(1, len(windows)):
        cand = x.data[windows[idx]]
        words = _words(~(cand <= out_data) & (out_data == out_data))
        best_bits ^= (best_bits ^ cand.view(np.int64)) & words
        if record:
            arg += words & (idx - arg)
    if not record:
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_bits = grad.view(np.int64)
        grad_x = np.zeros_like(x.data)
        for idx, window in enumerate(windows):
            # The gradient where this offset won, +0.0 elsewhere: a sum
            # that starts at +0.0 never holds -0.0, so the +0.0 adds
            # change no value.
            words = _words(arg == idx)
            words &= grad_bits
            view = grad_x[window]
            view += words.view(np.float64)
        x._accumulate(grad_x, owned=True)

    return Tensor._make(out_data, (x,), "max_pool2d", backward)


def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling (differentiable composite over slices)."""
    if x.ndim != 4:
        raise ValueError(f"avg_pool2d expects (n, c, h, w), got {x.shape}")
    kh, kw = _pair(kernel, "kernel")
    stride = _pair(stride if stride is not None else (kh, kw), "stride")
    out_h = conv_output_size(x.shape[2], kh, stride[0], 0)
    out_w = conv_output_size(x.shape[3], kw, stride[1], 0)
    total: Optional[Tensor] = None
    for di in range(kh):
        for dj in range(kw):
            piece = x[_window(di, dj, stride, out_h, out_w)]
            total = piece if total is None else total + piece
    assert total is not None
    return total * (1.0 / (kh * kw))
