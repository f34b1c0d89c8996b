"""Model zoo: the paper's exact parameter counts and shapes.

Without a graph, the CNNs run their feature stack a chunk of images at a
time.  Their logits are gated against the graph path byte for byte, NaN
payloads included, at batch sizes around the chunk boundaries.
"""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.nn import MLP, CrossEntropyLoss, LeNet5, McMahanCNN, SGD, build_model, count_parameters
from repro.nn import models


class TestMcMahanCNN:
    def test_exact_parameter_count(self):
        # §VI-A: "a total of 21,840 trainable parameters".
        model = McMahanCNN(rng=0)
        assert count_parameters(model) == 21_840 == McMahanCNN.NUM_PARAMETERS

    def test_forward_shape(self, rng):
        model = McMahanCNN(rng=0)
        out = model(rng.normal(size=(3, 1, 28, 28)))
        assert out.shape == (3, 10)

    def test_rejects_wrong_geometry(self, rng):
        model = McMahanCNN(rng=0)
        with pytest.raises(ValueError):
            model(rng.normal(size=(3, 3, 28, 28)))
        with pytest.raises(ValueError):
            model(rng.normal(size=(3, 1, 32, 32)))

    def test_deterministic_init(self):
        a, b = McMahanCNN(rng=7), McMahanCNN(rng=7)
        np.testing.assert_allclose(a.flat_parameters(), b.flat_parameters())

    def test_trains_one_step(self, rng):
        model = McMahanCNN(rng=0)
        before = model.flat_parameters()
        x = rng.normal(size=(4, 1, 28, 28))
        y = np.array([0, 1, 2, 3])
        loss = CrossEntropyLoss()(model(x), y)
        loss.backward()
        SGD(model.parameters(), lr=0.1).step()
        assert not np.allclose(model.flat_parameters(), before)


class TestLeNet5:
    def test_exact_parameter_count(self):
        # §VI-A: "a total of 62,006 trainable parameters".
        model = LeNet5(rng=0)
        assert count_parameters(model) == 62_006 == LeNet5.NUM_PARAMETERS

    def test_forward_shape(self, rng):
        model = LeNet5(rng=0)
        out = model(rng.normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_rejects_wrong_geometry(self, rng):
        with pytest.raises(ValueError):
            LeNet5(rng=0)(rng.normal(size=(2, 1, 28, 28)))


# name: (class, input (c, h, w), bytes of one image's conv1 output)
CNNS = {
    "mcmahan_cnn": (McMahanCNN, (1, 28, 28), 8 * 10 * 24 * 24),
    "lenet5": (LeNet5, (3, 32, 32), 8 * 6 * 28 * 28),
}
IMAGE_DATA = ["normal", "signed_zero", "nonfinite"]


def _chunk(name):
    """Images a chunk of the inference path runs at once."""
    return models._FEATURE_BYTES // CNNS[name][2]


def _batch_sizes(chunk):
    """One image, either side of one and two chunk boundaries, and large batches."""
    return sorted({1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 256, 400})


def _images(kind, shape, rng):
    """Normal images, ``±0.0``, or normal images with NaN, ``±inf`` and ``-0.0`` mixed in."""
    if kind == "signed_zero":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    values = rng.normal(size=shape)
    if kind == "nonfinite":
        u = rng.random(shape)
        values[u < 0.002] = np.nan
        values[(0.002 <= u) & (u < 0.004)] = np.inf
        values[(0.004 <= u) & (u < 0.006)] = -np.inf
        values[(0.006 <= u) & (u < 0.2)] = -0.0
    return values


INFERENCE_CASES = [
    (name, n, kind)
    for name in CNNS
    for n in _batch_sizes(_chunk(name))
    for kind in IMAGE_DATA
]


class TestChunkedInference:
    def test_chunks_are_smaller_than_the_evaluation_batch(self):
        # 256 is repro.fl.metrics.evaluate's batch; it must cross a chunk
        # boundary, or the cases below would not test one.
        chunks = [_chunk(name) for name in CNNS]
        assert chunks == [45, 55]
        assert all(2 * chunk + 1 <= 256 for chunk in chunks)

    @pytest.mark.parametrize(
        "case",
        range(len(INFERENCE_CASES)),
        ids=["-".join(map(str, case)) for case in INFERENCE_CASES],
    )
    def test_logits_match_graph_path(self, case):
        name, n, kind = INFERENCE_CASES[case]
        cls, shape, _ = CNNS[name]
        model = cls(rng=case).eval()
        x = _images(kind, (n,) + shape, np.random.default_rng(7000 + case))
        # inf - inf and inf * 0 make NaNs; the graph path runs last.
        with np.errstate(invalid="ignore"):
            with no_grad():
                inferred = model(x)
            graph = model(x)
        assert graph.requires_grad and not inferred.requires_grad
        assert inferred.data.tobytes() == graph.data.tobytes()

    @pytest.mark.parametrize("n", _batch_sizes(_chunk("mcmahan_cnn"))[3:])
    def test_train_mode_dropout_draws_match_one_whole_batch_draw(self, n):
        x = np.random.default_rng(n).normal(size=(n, 1, 28, 28))
        chunked, whole = McMahanCNN(rng=3), McMahanCNN(rng=3)
        with no_grad():
            inferred = chunked(x)
        graph = whole(x)
        assert inferred.data.tobytes() == graph.data.tobytes()
        state = chunked.dropout._rng.bit_generator.state
        assert state == whole.dropout._rng.bit_generator.state
        assert state != McMahanCNN(rng=3).dropout._rng.bit_generator.state


class TestMLP:
    def test_shapes(self, rng):
        model = MLP(6, [16, 8], 3, rng=0)
        assert model(rng.normal(size=(5, 6))).shape == (5, 3)

    def test_tanh_variant(self, rng):
        model = MLP(4, [8], 2, activation="tanh", rng=0)
        assert model(rng.normal(size=(2, 4))).shape == (2, 2)

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            MLP(4, [8], 2, activation="gelu")

    def test_no_hidden(self, rng):
        model = MLP(4, [], 2, rng=0)
        assert model(rng.normal(size=(2, 4))).shape == (2, 2)
        assert model.num_parameters() == 4 * 2 + 2


class TestRegistry:
    def test_builds_both(self):
        assert isinstance(build_model("mcmahan_cnn", rng=0), McMahanCNN)
        assert isinstance(build_model("lenet5", rng=0), LeNet5)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("resnet50")

    def test_custom_classes(self, rng):
        model = build_model("mcmahan_cnn", num_classes=7, rng=0)
        assert model(rng.normal(size=(1, 1, 28, 28))).shape == (1, 7)
