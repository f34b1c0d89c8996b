"""The slice-based image kernels against the kernels they replaced, byte for byte.

``im2col``'s col2im backward and ``max_pool2d``'s backward add each input
element's gradient terms from ``+0.0`` in kernel-offset ``(di, dj)`` order,
the order ``np.add.at`` used in :mod:`tests.autograd.conv_reference`.  Any
other order, or an assignment in place of an add, changes a bit somewhere
in these grids: overlapping windows (stride < kernel), skipped pixels
(stride > kernel), padding, integer data with argmax ties and signed zeros.

The ``nonfinite`` kind (integer data with NaN and ±inf, in the input and
the seed gradient) checks ``max_pool2d``'s NaN-wins-first rule.  There
NaN positions must match and every other element must match by bytes.
When two NaNs meet in one gradient sum, say the ``0xfff8...`` that
``inf + -inf`` makes and a ``0x7ff8...`` from the data, ``np.add.at`` and
an in-place add keep different ones, so NaN payloads are outside the
contract.

Without a graph, ``conv2d`` lowers a chunk of images at a time and
multiplies each chunk into its rows of the output.  It is gated against
the graph path byte for byte, NaN payloads included, on the real CNNs'
conv geometries and a few odd ones, at batch sizes around the chunk
boundaries.

``Tensor.relu`` is gated the same way against ``np.where(x > 0, x, 0.0)``
and ``grad * (x > 0)``.

Without a graph, ``Tensor.relu`` builds no mask and ``max_pool2d`` keeps
no arg-max offsets; both are gated against the graph path's output by
bytes, NaN payloads included.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, no_grad

from tests.autograd.conv_reference import reference_im2col, reference_max_pool2d

KERNELS = [(1, 1), (2, 2), (3, 3), (2, 4), (5, 5)]
STRIDES = [1, 2, (3, 1)]
PADDINGS = [0, 1, (2, 0)]
DATA = ["normal", "integer", "signed_zero"]


def _grid(*axes):
    """Every case over ``DATA``, then every case over ``nonfinite``.

    Cases are seeded by their index, so an exact case's data does not
    depend on whether the nonfinite kind is in the grid.
    """
    return list(itertools.product(*axes, DATA)) + list(
        itertools.product(*axes, ["nonfinite"])
    )


CONV_CASES = _grid(KERNELS, STRIDES, PADDINGS)
POOL_CASES = _grid(KERNELS, STRIDES)


def _ids(cases):
    def text(value):
        return "x".join(map(str, value)) if isinstance(value, tuple) else str(value)

    return ["-".join(text(v) for v in case) for case in cases]


def _draw(kind, shape, rng):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "integer":
        return np.round(rng.normal(scale=2.0, size=shape))
    if kind == "signed_zero":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    values = np.round(rng.normal(scale=2.0, size=shape))
    u = rng.random(shape)
    values[u < 0.15] = np.nan
    values[(0.15 <= u) & (u < 0.25)] = np.inf
    values[(0.25 <= u) & (u < 0.35)] = -np.inf
    return values


def _assert_same_bytes(got, expected, nan_payloads=False):
    """Equal bytes; with ``nan_payloads``, equal NaN positions and equal bytes elsewhere."""
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    if nan_payloads:
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(got), nan)
        got, expected = got[~nan], expected[~nan]
    assert got.tobytes() == expected.tobytes()


def _forward_backward(fn, inputs, kind, seed):
    """``fn(*tensors)``'s output and every input gradient, from one seeded grad."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 make NaNs
        out = fn(*tensors)
        out.backward(_draw(kind, out.shape, np.random.default_rng(seed)))
    return [out.data] + [t.grad for t in tensors]


def _compare(fn, reference_fn, inputs, kind, seed):
    got = _forward_backward(fn, inputs, kind, seed)
    expected = _forward_backward(reference_fn, inputs, kind, seed)
    for g, e in zip(got, expected):
        _assert_same_bytes(g, e, nan_payloads=kind == "nonfinite")


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


# name: (input (c, h, w), weight (c_out, c_in, kh, kw), stride, padding)
INFERENCE_GEOMETRIES = {
    "mcmahan_conv1": ((1, 28, 28), (10, 1, 5, 5), 1, 0),
    "mcmahan_conv2": ((10, 12, 12), (20, 10, 5, 5), 1, 0),
    "lenet_conv1": ((3, 32, 32), (6, 3, 5, 5), 1, 0),
    "lenet_conv2": ((6, 14, 14), (16, 6, 5, 5), 1, 0),
    "stride2": ((4, 28, 28), (8, 4, 5, 5), 2, 0),
    "padded": ((6, 14, 14), (8, 6, 3, 3), 1, 1),
    "kernel3x2": ((5, 20, 24), (7, 5, 3, 2), 1, 0),
    "kernel2x4_stride3x1_pad2x0": ((3, 17, 15), (5, 3, 2, 4), (3, 1), (2, 0)),
}
INFERENCE_DATA = ["normal", "signed_zero", "nonfinite"]


def _chunk(geometry):
    """Images a chunk of the inference path lowers at once."""
    (_, h, w), (_, c_in, kh, kw), stride, padding = geometry
    stride, padding = F._pair(stride, "stride"), F._pair(padding, "padding", 0)
    out_h = F.conv_output_size(h, kh, stride[0], padding[0])
    out_w = F.conv_output_size(w, kw, stride[1], padding[1])
    return max(1, F._COLUMN_BYTES // (8 * c_in * kh * kw * out_h * out_w))


def _batch_sizes(chunk):
    """One image, either side of one and two chunk boundaries, and large batches."""
    return sorted({1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 256, 400} - {0})


INFERENCE_CASES = [
    (name, n, kind)
    for name, geometry in INFERENCE_GEOMETRIES.items()
    for n in _batch_sizes(_chunk(geometry))
    for kind in INFERENCE_DATA
]


def _draw_conv(kind, shape, rng, nonfinite=0.0):
    """Normal data, ``±0.0``, or normal data with ``-0.0``, NaN and ``±inf`` mixed in.

    In the ``nonfinite`` kind a ``nonfinite`` share of the elements each
    is NaN, +inf and -inf, and a fifth of the rest is ``-0.0``.
    """
    if kind == "signed_zero":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    values = rng.normal(size=shape)
    if kind == "nonfinite":
        u = rng.random(shape)
        values[u < nonfinite] = np.nan
        values[(nonfinite <= u) & (u < 2 * nonfinite)] = np.inf
        values[(2 * nonfinite <= u) & (u < 3 * nonfinite)] = -np.inf
        values[(3 * nonfinite <= u) & (u < 3 * nonfinite + 0.2)] = -0.0
    return values


def _conv_inputs(name, n, kind, rng):
    """Input, weight and bias for one inference case.

    In the ``nonfinite`` kind about one output window in seven sees a NaN
    or an infinity of the input; channel 0 adds a NaN bias to a NaN
    weight's NaNs, channels 1 and 2 have an infinite weight and channel 3
    a ``-0.0`` bias.
    """
    (c, h, w), weight_shape, _, _ = INFERENCE_GEOMETRIES[name]
    taps = np.prod(weight_shape[1:])
    x = _draw_conv(kind, (n, c, h, w), rng, nonfinite=0.05 / taps)
    weight = _draw_conv(kind, weight_shape, rng)
    bias = _draw_conv(kind, weight_shape[:1], rng)
    if kind == "nonfinite":
        weight[0, 0, 0, 0] = bias[0] = np.nan
        weight[1, 0, -1, -1], weight[2, -1, 0, -1] = np.inf, -np.inf
        bias[3] = -0.0
    return x, weight, bias


def _assert_inference_matches_graph(name, x, weight, bias):
    """``conv2d`` without a graph, both ways, against the graph path by bytes."""
    _, _, stride, padding = INFERENCE_GEOMETRIES[name]
    rest = [] if bias is None else [bias]

    def conv(*tensors):
        return F.conv2d(*tensors, stride=stride, padding=padding)

    params = [Tensor(a, requires_grad=True) for a in [weight] + rest]
    # The graph path runs last: its freed pre-bias product could otherwise
    # become the inference output's buffer and hide rows left unwritten.
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 make NaNs
        with no_grad():
            inferred = conv(Tensor(x), *params)
        constant = conv(Tensor(x), *[Tensor(a) for a in [weight] + rest])
        graph = conv(Tensor(x), *params)
    assert graph.requires_grad
    for out in (inferred, constant):
        assert not out.requires_grad
        _assert_same_bytes(out.data, graph.data)


def test_inference_chunks_are_smaller_than_the_evaluation_batch():
    # 256 is repro.fl.metrics.evaluate's batch; each real CNN conv must
    # split it, or the cases above would not cross a chunk boundary.
    chunks = [_chunk(INFERENCE_GEOMETRIES[name]) for name in INFERENCE_GEOMETRIES]
    assert chunks[:4] == [18, 16, 4, 17]
    assert all(2 * chunk + 1 <= 400 for chunk in chunks)


@pytest.mark.parametrize(
    "case",
    range(len(INFERENCE_CASES)),
    ids=["-".join(map(str, case)) for case in INFERENCE_CASES],
)
def test_conv2d_inference_matches_graph_path(case):
    name, n, kind = INFERENCE_CASES[case]
    rng = np.random.default_rng(5000 + case)
    _assert_inference_matches_graph(name, *_conv_inputs(name, n, kind, rng))


@pytest.mark.parametrize("name", INFERENCE_GEOMETRIES)
def test_conv2d_inference_without_bias_matches_graph_path(name):
    n = 2 * _chunk(INFERENCE_GEOMETRIES[name]) + 1
    rng = np.random.default_rng(6000 + list(INFERENCE_GEOMETRIES).index(name))
    x, weight, _ = _conv_inputs(name, n, "nonfinite", rng)
    _assert_inference_matches_graph(name, x, weight, None)


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


def _assert_no_graph(graph, *inferred):
    """Each ``inferred`` output has ``graph``'s bytes and carries no backward."""
    assert graph.requires_grad
    for out in inferred:
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
        _assert_same_bytes(out.data, graph.data)


@pytest.mark.parametrize("case", range(len(POOL_CASES)), ids=_ids(POOL_CASES))
def test_max_pool2d_without_graph_matches_graph_path(case):
    kernel, stride, kind = POOL_CASES[case]
    x = _draw(kind, (2, 3, 9, 8), np.random.default_rng(case))
    with no_grad():
        inferred = F.max_pool2d(Tensor(x, requires_grad=True), kernel, stride)
    constant = F.max_pool2d(Tensor(x), kernel, stride)
    graph = F.max_pool2d(Tensor(x, requires_grad=True), kernel, stride)
    _assert_no_graph(graph, inferred, constant)


def test_max_pool2d_without_graph_holds_no_arg_max():
    # McMahanCNN's conv1 output for one evaluation batch of 256 images.
    x = Tensor(np.random.default_rng(0).normal(size=(256, 10, 24, 24)))
    out_bytes = 256 * 10 * 12 * 12 * 8
    tracemalloc.start()
    try:
        with no_grad():
            out = F.max_pool2d(x, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.nbytes == out_bytes
    # The output, one offset's int64 select words and one update
    # temporary; an int64 arg-max and its update would add two more.
    assert peak < 3.5 * out_bytes


def _relu_data(kind, size, rng):
    if kind == "normal":
        return rng.normal(size=size)
    specials = {
        "signed_zero": [0.0, -0.0],
        "subnormal": [5e-324, -5e-324],
        "inf": [np.inf, -np.inf],
        "nan": [np.nan, 1.0, -1.0],
        "mixed": [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.5, -1.5],
    }[kind]
    return np.array(specials)[rng.integers(len(specials), size=size)]


RELU_KINDS = ["normal", "signed_zero", "subnormal", "inf", "nan", "mixed"]
RELU_SIZES = [1, 3, 7, 64, 1001]
# numpy's fmax returns -0.0 for a -0.0 input on its scalar tail path but
# +0.0 in its SIMD body; a short array keeps both -0.0s on the tail path.
RELU_CASES = [
    _relu_data(kind, size, np.random.default_rng(4000 + i))
    for i, (kind, size) in enumerate(itertools.product(RELU_KINDS, RELU_SIZES))
] + [np.array([-0.0, 1.0, -0.0])]
RELU_IDS = [f"{k}-{n}" for k, n in itertools.product(RELU_KINDS, RELU_SIZES)] + [
    "neg_zero_tail"
]


@pytest.mark.parametrize("x", RELU_CASES, ids=RELU_IDS)
def test_relu_matches_masked_select(x):
    grad = x[::-1].copy()
    t = Tensor(x.copy(), requires_grad=True)
    with np.errstate(invalid="ignore"):  # inf * 0 makes NaNs
        out = t.relu()
        out.backward(grad)
        _assert_same_bytes(out.data, np.where(x > 0, x, 0.0))
        _assert_same_bytes(t.grad, grad * (x > 0))


@pytest.mark.parametrize("x", RELU_CASES, ids=RELU_IDS)
def test_relu_without_graph_matches_graph_path(x):
    with no_grad():
        inferred = Tensor(x, requires_grad=True).relu()
    constant = Tensor(x).relu()
    graph = Tensor(x, requires_grad=True).relu()
    _assert_no_graph(graph, inferred, constant)
