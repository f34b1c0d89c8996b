"""Convolution and pooling: forward values vs a reference, exact gradients."""

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, gradcheck, no_grad
from repro.nn.layers import AvgPool2d


def _as_pair(value):
    return (value, value) if isinstance(value, int) else tuple(value)


def reference_conv2d(x, w, b, stride, padding):
    """Naive loop implementation as ground truth (int or (h, w) pairs)."""
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w_in + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for ni in range(n):
        for co in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = xp[ni, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[ni, co, i, j] = (patch * w[co]).sum()
            if b is not None:
                out[ni, co] += b[co]
    return out


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 0), (2, 1)])
    def test_matches_reference(self, stride, padding, rng):
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        got = F.conv2d(
            Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding
        )
        expected = reference_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(got.data, expected, atol=1e-10)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        got = F.conv2d(Tensor(x), Tensor(w), None)
        expected = reference_conv2d(x, w, None, 1, 0)
        np.testing.assert_allclose(got.data, expected, atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 3, 5, 5))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_bad_input_ndim(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((3, 5, 5))), Tensor(np.zeros((2, 3, 3, 3))))

    def test_bad_bias_shape(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(
                Tensor(np.zeros((1, 1, 5, 5))),
                Tensor(np.zeros((2, 1, 3, 3))),
                Tensor(np.zeros(3)),
            )

    def test_no_grad_holds_one_chunk_of_columns(self, rng):
        # Without a graph the columns are lowered 18 images at a time
        # (2 MiB of columns at most) into one reused block and the bias is
        # added in place, so the peak is one output plus about one block,
        # never the 64 images' 7.4 MB of columns.
        x = Tensor(rng.normal(size=(64, 1, 28, 28)))
        w = Tensor(rng.normal(size=(10, 1, 5, 5)))
        b = Tensor(rng.normal(size=(10,)))
        block = x.data.itemsize * 18 * 25 * 24 * 24
        out = x.data.itemsize * 64 * 10 * 24 * 24
        with no_grad():
            tracemalloc.start()
            try:
                F.conv2d(x, w, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out <= peak < out + 2 * block


class TestConv2dGradients:
    def test_gradcheck_all_inputs(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.2, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert gradcheck(
            lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1),
            [x, w, b],
            atol=1e-5,
        )

    def test_gradcheck_strided(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 7, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.2, requires_grad=True)
        assert gradcheck(
            lambda x, w: F.conv2d(x, w, None, stride=2, padding=0),
            [x, w],
            atol=1e-5,
        )


class TestConv2dEdgeCases:
    """Asymmetric padding, stride > kernel, and 1×1 spatial extents."""

    @pytest.mark.parametrize("padding", [(2, 1), (0, 3), (1, 0)])
    def test_asymmetric_padding_matches_reference(self, padding, rng):
        x = rng.normal(size=(2, 2, 6, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=(3,))
        got = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=padding)
        expected = reference_conv2d(x, w, b, 1, padding)
        np.testing.assert_allclose(got.data, expected, atol=1e-10)

    def test_asymmetric_padding_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.2, requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        assert gradcheck(
            lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=(2, 1)),
            [x, w, b],
            atol=1e-5,
        )

    def test_stride_exceeds_kernel_matches_reference(self, rng):
        # Stride 3 with a 2x2 kernel: whole input columns/rows are never
        # touched, so their gradient must be exactly zero.
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 2, 2))
        got = F.conv2d(Tensor(x), Tensor(w), None, stride=3, padding=0)
        expected = reference_conv2d(x, w, None, 3, 0)
        np.testing.assert_allclose(got.data, expected, atol=1e-10)

    def test_stride_exceeds_kernel_gradcheck_and_dead_pixels(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 7, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 1, 2, 2)) * 0.3, requires_grad=True)
        assert gradcheck(
            lambda x, w: F.conv2d(x, w, None, stride=3, padding=0),
            [x, w],
            atol=1e-5,
        )
        x.zero_grad()
        F.conv2d(x, w, None, stride=3, padding=0).sum().backward()
        # Column/row index 2 falls between windows (windows cover 0-1, 3-4, 6);
        # the skipped pixels must receive exactly zero gradient.
        assert np.all(x.grad[:, :, 2, :] == 0.0)
        assert np.all(x.grad[:, :, :, 2] == 0.0)

    def test_asymmetric_stride_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 7, 9)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.2, requires_grad=True)
        assert gradcheck(
            lambda x, w: F.conv2d(x, w, None, stride=(2, 3), padding=(1, 2)),
            [x, w],
            atol=1e-5,
        )

    def test_1x1_spatial_input_matches_reference(self, rng):
        x = rng.normal(size=(2, 3, 1, 1))
        w = rng.normal(size=(4, 3, 1, 1))
        b = rng.normal(size=(4,))
        got = F.conv2d(Tensor(x), Tensor(w), Tensor(b))
        expected = reference_conv2d(x, w, b, 1, 0)
        np.testing.assert_allclose(got.data, expected, atol=1e-10)
        assert got.shape == (2, 4, 1, 1)

    def test_1x1_spatial_input_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 1, 1)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 1, 1)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        assert gradcheck(lambda x, w, b: F.conv2d(x, w, b), [x, w, b], atol=1e-5)

    def test_1x1_input_with_padding_and_3x3_kernel(self, rng):
        # Padding is the only thing making a 3x3 kernel fit a 1x1 image.
        x = Tensor(rng.normal(size=(1, 2, 1, 1)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.2, requires_grad=True)
        got = F.conv2d(x, w, None, stride=1, padding=1)
        expected = reference_conv2d(x.data, w.data, None, 1, 1)
        np.testing.assert_allclose(got.data, expected, atol=1e-10)
        assert gradcheck(
            lambda x, w: F.conv2d(x, w, None, stride=1, padding=1),
            [x, w],
            atol=1e-5,
        )


class TestPoolingEdgeCases:
    def test_max_pool_stride_exceeds_kernel(self, rng):
        # kernel 2, stride 3: row/column 2 (mod 3) is skipped entirely.
        x = rng.normal(size=(1, 1, 8, 8))
        out = F.max_pool2d(Tensor(x), kernel=2, stride=3)
        assert out.shape == (1, 1, 3, 3)
        for i in range(3):
            for j in range(3):
                window = x[0, 0, 3 * i : 3 * i + 2, 3 * j : 3 * j + 2]
                assert out.data[0, 0, i, j] == window.max()

    def test_max_pool_stride_exceeds_kernel_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 7, 7)), requires_grad=True)
        assert gradcheck(
            lambda x: F.max_pool2d(x, kernel=2, stride=3), [x], atol=1e-5
        )
        x.zero_grad()
        F.max_pool2d(x, kernel=2, stride=3).sum().backward()
        assert np.all(x.grad[:, :, 2, :] == 0.0)

    def test_max_pool_1x1_spatial(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 1, 1)), requires_grad=True)
        out = F.max_pool2d(x, kernel=1)
        np.testing.assert_array_equal(out.data, x.data)
        assert gradcheck(lambda x: F.max_pool2d(x, 1), [x], atol=1e-5)

    def test_max_pool_asymmetric_kernel_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 8)), requires_grad=True)
        out = F.max_pool2d(x, kernel=(2, 4))
        assert out.shape == (1, 2, 3, 2)
        assert gradcheck(lambda x: F.max_pool2d(x, (2, 4)), [x], atol=1e-5)

    def test_avg_pool_1x1_spatial_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 1, 1)), requires_grad=True)
        out = F.avg_pool2d(x, kernel=1)
        np.testing.assert_array_equal(out.data, x.data)
        assert gradcheck(lambda x: F.avg_pool2d(x, 1), [x])


class TestIm2col:
    def test_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        cols = F.im2col(x, kernel=(3, 3), stride=1, padding=0)
        assert cols.shape == (2, 3 * 9, 6 * 6)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        assert gradcheck(lambda x: F.im2col(x, (2, 2), 1, 1), [x], atol=1e-5)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            F.im2col(Tensor(np.zeros((2, 5, 5))), (2, 2))


class TestPooling:
    def test_max_pool_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[4.0]]]])

    def test_max_pool_matches_reference(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        out = F.max_pool2d(Tensor(x), 2)
        expected = x.reshape(2, 3, 4, 2, 4, 2).max(axis=(3, 5))
        np.testing.assert_allclose(out.data, expected)

    def test_max_pool_overlapping(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        out = F.max_pool2d(Tensor(x), kernel=3, stride=2)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[[[1.0, 5.0], [3.0, 2.0]]]]), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, [[[[0.0, 1.0], [0.0, 0.0]]]])

    def test_max_pool_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        assert gradcheck(lambda x: F.max_pool2d(x, 2), [x], atol=1e-5)

    def test_avg_pool_values(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        out = F.avg_pool2d(Tensor(x), 2)
        expected = x.reshape(2, 3, 3, 2, 3, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out.data, expected)

    def test_avg_pool_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        assert gradcheck(lambda x: F.avg_pool2d(x, 2), [x])

    def test_pool_rejects_3d(self):
        with pytest.raises(ValueError):
            F.max_pool2d(Tensor(np.zeros((2, 5, 5))), 2)
        with pytest.raises(ValueError):
            F.avg_pool2d(Tensor(np.zeros((2, 5, 5))), 2)


class TestZeroKernelOrStride:
    """A kernel or stride below 1 is a ValueError naming the argument."""

    IMAGE = np.zeros((1, 1, 5, 5))

    def test_conv2d_zero_stride(self):
        weight = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match="stride"):
            F.conv2d(Tensor(self.IMAGE), weight, stride=0)

    def test_im2col_zero_stride(self):
        with pytest.raises(ValueError, match="stride"):
            F.im2col(Tensor(self.IMAGE), 3, stride=0)

    def test_im2col_zero_kernel(self):
        # Used to return an empty (1, 0, 36) column matrix.
        with pytest.raises(ValueError, match="kernel"):
            F.im2col(Tensor(self.IMAGE), 0)

    def test_avg_pool2d_zero_stride(self):
        with pytest.raises(ValueError, match="stride"):
            F.avg_pool2d(Tensor(self.IMAGE), 2, stride=0)

    def test_avg_pool_layer_zero_stride(self):
        with pytest.raises(ValueError, match="stride"):
            AvgPool2d(2, stride=0)(Tensor(self.IMAGE))

    def test_max_pool2d_zero_kernel(self):
        # Used to blame the stride, which defaults to the kernel.
        with pytest.raises(ValueError, match="kernel"):
            F.max_pool2d(Tensor(self.IMAGE), 0)

    def test_zero_in_a_pair_and_negative_padding(self):
        with pytest.raises(ValueError, match="stride"):
            F.max_pool2d(Tensor(self.IMAGE), 2, stride=(1, 0))
        with pytest.raises(ValueError, match="padding"):
            F.im2col(Tensor(self.IMAGE), 3, padding=-1)
