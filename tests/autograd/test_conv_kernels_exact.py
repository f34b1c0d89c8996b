"""The slice-based image kernels against the kernels they replaced, byte for byte.

``im2col``'s col2im backward and ``max_pool2d``'s backward add each input
element's gradient terms from ``+0.0`` in kernel-offset ``(di, dj)`` order,
the order ``np.add.at`` used in :mod:`tests.autograd.conv_reference`.  Any
other order, or an assignment in place of an add, changes a bit somewhere
in these grids: overlapping windows (stride < kernel), skipped pixels
(stride > kernel), padding, integer data with argmax ties and signed zeros.
"""

import itertools

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F

from tests.autograd.conv_reference import reference_im2col, reference_max_pool2d

KERNELS = [(1, 1), (2, 2), (3, 3), (2, 4), (5, 5)]
STRIDES = [1, 2, (3, 1)]
PADDINGS = [0, 1, (2, 0)]
DATA = ["normal", "integer", "signed_zero"]

CONV_CASES = list(itertools.product(KERNELS, STRIDES, PADDINGS, DATA))
POOL_CASES = list(itertools.product(KERNELS, STRIDES, DATA))


def _ids(cases):
    def text(value):
        return "x".join(map(str, value)) if isinstance(value, tuple) else str(value)

    return ["-".join(text(v) for v in case) for case in cases]


def _draw(kind, shape, rng):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "integer":
        return np.round(rng.normal(scale=2.0, size=shape))
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


def _assert_same_bytes(got, expected):
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _forward_backward(fn, inputs, kind, seed):
    """``fn(*tensors)``'s output and every input gradient, from one seeded grad."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    out = fn(*tensors)
    out.backward(_draw(kind, out.shape, np.random.default_rng(seed)))
    return [out.data] + [t.grad for t in tensors]


def _compare(fn, reference_fn, inputs, kind, seed):
    got = _forward_backward(fn, inputs, kind, seed)
    expected = _forward_backward(reference_fn, inputs, kind, seed)
    for g, e in zip(got, expected):
        _assert_same_bytes(g, e)


@pytest.mark.parametrize("case", range(len(CONV_CASES)), ids=_ids(CONV_CASES))
def test_im2col_matches_reference(case):
    kernel, stride, padding, kind = CONV_CASES[case]
    rng = np.random.default_rng(case)
    x = _draw(kind, (2, 3, 9, 8), rng)
    _compare(
        lambda x: F.im2col(x, kernel, stride, padding),
        lambda x: reference_im2col(x, kernel, stride, padding),
        [x],
        kind,
        seed=1000 + case,
    )


@pytest.mark.parametrize("case", range(len(CONV_CASES)), ids=_ids(CONV_CASES))
def test_conv2d_matches_reference(case, monkeypatch):
    kernel, stride, padding, kind = CONV_CASES[case]
    rng = np.random.default_rng(case)
    x = _draw(kind, (2, 3, 9, 8), rng)
    w = _draw(kind, (4, 3) + kernel, rng)
    b = _draw(kind, (4,), rng)

    def conv(x, w, b):
        return F.conv2d(x, w, b, stride=stride, padding=padding)

    def reference_conv(x, w, b):
        # The im2col backward is bound at forward time, so the patch need
        # only cover the forward.
        with monkeypatch.context() as patch:
            patch.setattr(F, "im2col", reference_im2col)
            return conv(x, w, b)

    _compare(conv, reference_conv, [x, w, b], kind, seed=2000 + case)


@pytest.mark.parametrize("case", range(len(POOL_CASES)), ids=_ids(POOL_CASES))
def test_max_pool2d_matches_reference(case):
    kernel, stride, kind = POOL_CASES[case]
    rng = np.random.default_rng(case)
    x = _draw(kind, (2, 3, 9, 8), rng)
    _compare(
        lambda x: F.max_pool2d(x, kernel, stride),
        lambda x: reference_max_pool2d(x, kernel, stride),
        [x],
        kind,
        seed=3000 + case,
    )

