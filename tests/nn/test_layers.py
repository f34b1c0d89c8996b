"""Layer behaviour: shapes, values, modes, validation."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    LogSoftmax,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        layer = Linear(4, 3, rng=0)
        x = rng.normal(size=(5, 4))
        out = layer(x)
        np.testing.assert_allclose(
            out.data, x @ layer.weight.data.T + layer.bias.data
        )

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        assert layer.num_parameters() == 12

    def test_input_dim_check(self):
        with pytest.raises(ValueError):
            Linear(4, 3, rng=0)(np.zeros((2, 5)))

    def test_seeded_determinism(self):
        a, b = Linear(4, 3, rng=42), Linear(4, 3, rng=42)
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, -1)

    def test_repr(self):
        assert "Linear" in repr(Linear(2, 3, rng=0))


class TestConv2dLayer:
    def test_output_shape(self, rng):
        layer = Conv2d(3, 8, kernel_size=3, padding=1, rng=0)
        out = layer(rng.normal(size=(2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_strided_shape(self, rng):
        layer = Conv2d(1, 4, kernel_size=3, stride=2, rng=0)
        out = layer(rng.normal(size=(1, 1, 9, 9)))
        assert out.shape == (1, 4, 4, 4)

    def test_parameter_count(self):
        layer = Conv2d(3, 8, kernel_size=5, rng=0)
        assert layer.num_parameters() == 8 * 3 * 25 + 8

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Conv2d(0, 3, 3)
        with pytest.raises(ValueError):
            Conv2d(3, 3, 3, stride=0)
        with pytest.raises(ValueError):
            Conv2d(3, 3, 3, padding=-1)


class TestPoolingLayers:
    def test_max_default_stride(self, rng):
        out = MaxPool2d(2)(rng.normal(size=(1, 2, 8, 8)))
        assert out.shape == (1, 2, 4, 4)

    def test_avg(self, rng):
        out = AvgPool2d(2)(rng.normal(size=(1, 2, 8, 8)))
        assert out.shape == (1, 2, 4, 4)

    def test_custom_stride(self, rng):
        out = MaxPool2d(3, stride=2)(rng.normal(size=(1, 1, 7, 7)))
        assert out.shape == (1, 1, 3, 3)


class TestLayerGeometry:
    """Kernel, stride and padding are checked when the layer is built."""

    @pytest.mark.parametrize(
        "build,argument",
        [
            (lambda: Conv2d(1, 1, 2.7), "kernel_size"),
            (lambda: MaxPool2d(2.9), "kernel_size"),
            (lambda: AvgPool2d(3, stride=2.5), "stride"),
            (lambda: Conv2d(1, 1, 3, padding=0.5), "padding"),
            (lambda: MaxPool2d(2, stride=0), "stride"),
            (lambda: AvgPool2d(2, stride=-1), "stride"),
        ],
        ids=[
            "conv_fractional_kernel",
            "max_pool_fractional_kernel",
            "avg_pool_fractional_stride",
            "conv_fractional_padding",
            "max_pool_zero_stride",
            "avg_pool_negative_stride",
        ],
    )
    def test_rejected_at_construction(self, build, argument):
        with pytest.raises(ValueError, match=argument):
            build()

    def test_numpy_integers_accepted(self):
        conv = Conv2d(1, 1, np.int64(3), stride=np.int32(2), padding=np.int64(1))
        assert (conv.kernel_size, conv.stride, conv.padding) == (3, 2, 1)
        assert type(conv.kernel_size) is int
        pool = MaxPool2d(np.int64(2), stride=np.int16(1))
        assert (pool.kernel_size, pool.stride) == (2, 1)
        assert AvgPool2d(np.int64(3)).stride == 3


class TestActivations:
    @pytest.mark.parametrize(
        "layer,fn",
        [
            (ReLU(), lambda x: np.maximum(x, 0)),
            (Tanh(), np.tanh),
            (Sigmoid(), lambda x: 1 / (1 + np.exp(-x))),
        ],
    )
    def test_values(self, layer, fn, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(layer(x).data, fn(x), atol=1e-12)

    def test_softmax_layer(self, rng):
        out = Softmax(axis=1)(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(3))

    def test_log_softmax_layer(self, rng):
        x = rng.normal(size=(3, 5))
        out = LogSoftmax(axis=1)(x)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(3))

    def test_activations_have_no_parameters(self):
        for layer in (ReLU(), Tanh(), Sigmoid(), Softmax(), LogSoftmax()):
            assert layer.num_parameters() == 0


class TestDropout:
    def test_eval_is_identity(self, rng):
        layer = Dropout(0.5, rng=0).eval()
        x = rng.normal(size=(10, 10))
        np.testing.assert_allclose(layer(x).data, x)

    def test_train_zeroes_and_scales(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((100, 100))
        out = layer(x).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted dropout scaling
        assert 0.3 < (out == 0).mean() < 0.7

    def test_p_zero_is_identity_in_train(self, rng):
        layer = Dropout(0.0, rng=0)
        x = rng.normal(size=(5, 5))
        np.testing.assert_allclose(layer(x).data, x)

    def test_expected_value_preserved(self):
        layer = Dropout(0.3, rng=0)
        x = np.ones((200, 200))
        assert layer(x).data.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestFlatten:
    def test_default(self, rng):
        out = Flatten()(rng.normal(size=(2, 3, 4, 5)))
        assert out.shape == (2, 60)

    def test_start_dim(self, rng):
        out = Flatten(start_dim=2)(rng.normal(size=(2, 3, 4, 5)))
        assert out.shape == (2, 3, 20)


class TestSequential:
    def test_chains(self, rng):
        model = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        out = model(rng.normal(size=(3, 4)))
        assert out.shape == (3, 2)

    def test_len_iter_getitem(self):
        model = Sequential(Linear(2, 2, rng=0), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)
        assert isinstance(model[-1], ReLU)
        assert [type(m).__name__ for m in model] == ["Linear", "ReLU"]

    def test_index_error(self):
        model = Sequential(ReLU())
        with pytest.raises(IndexError):
            model[3]

    def test_rejects_non_module(self):
        with pytest.raises(TypeError):
            Sequential(lambda x: x)

    def test_parameters_registered(self):
        model = Sequential(Linear(2, 3, rng=0), Linear(3, 1, rng=1))
        assert model.num_parameters() == (6 + 3) + (3 + 1)
