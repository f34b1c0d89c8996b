"""``Sequential.infer``, the one graph-free forward, against autograd.

Acting, the PPO minibatch step and the explained-variance pass all run
this loop over ``Linear`` and ``Tanh`` layers.  It must equal the autograd
forward bit for bit, record each ``Linear`` input for the hand-written
backward, never write into the caller's array, hand back a fresh array on
every call, and refuse every other layer type.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.nn.layers import Conv2d, Linear, ReLU, Sequential, Tanh
from repro.rl.policy import _mlp

from tests.rl.ppo_reference import reference_forward

#: Layer widths of the agents' nets: the exterior actor and critic, the
#: inner actor at N=5 and at N=1, and a net with no hidden layer.
SIZES = [(62, 64, 64, 1), (1, 64, 64, 5), (1, 64, 64, 1), (62, 1)]
ROWS = [1, 8]


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def make_case(sizes, rows, seed=0):
    rng = np.random.default_rng(seed)
    net = _mlp(list(sizes), rng)
    # A wide input scale drives some hidden units into tanh saturation.
    x = rng.normal(scale=3.0, size=(rows, sizes[0]))
    return net, x, rng


@pytest.mark.parametrize("rows", ROWS, ids=lambda m: f"M{m}")
@pytest.mark.parametrize("sizes", SIZES, ids=lambda s: "-".join(map(str, s)))
class TestAgentNets:
    def test_matches_autograd_forward_bitwise(self, sizes, rows):
        net, x, rng = make_case(sizes, rows)
        for _ in range(3):
            assert_bits_equal(net.infer(x), reference_forward(net, x))
            x = rng.normal(scale=3.0, size=x.shape)

    def test_records_each_linear_input(self, sizes, rows):
        net, x, _ = make_case(sizes, rows)
        expected = []
        with no_grad():
            h = Tensor(x)
            for layer in net:
                if isinstance(layer, Linear):
                    expected.append(h.data.copy())
                h = layer(h)
        inputs = []
        net.infer(x, inputs)
        assert len(inputs) == len(expected) == len(sizes) - 1
        for actual, want in zip(inputs, expected):
            assert_bits_equal(actual, want)

    def test_leaves_caller_array_unchanged(self, sizes, rows):
        net, x, _ = make_case(sizes, rows)
        saved = x.copy()
        net.infer(x)
        net.infer(x, [])
        assert_bits_equal(x, saved)

    def test_output_survives_next_call(self, sizes, rows):
        net, x, rng = make_case(sizes, rows)
        out = net.infer(x)
        saved = out.copy()
        again = net.infer(rng.normal(size=x.shape))
        assert_bits_equal(out, saved)
        assert not np.shares_memory(out, again)
        assert not np.shares_memory(out, x)


@pytest.mark.parametrize(
    "layers",
    [lambda: (Tanh(), Linear(4, 2, rng=0)), lambda: (Tanh(),), lambda: ()],
    ids=["leading_tanh", "tanh_only", "empty"],
)
def test_nets_without_a_leading_linear_copy_the_input(layers):
    net = Sequential(*layers())
    x = np.random.default_rng(1).normal(size=(3, 4))
    saved = x.copy()
    out = net.infer(x)
    assert_bits_equal(x, saved)
    assert_bits_equal(out, reference_forward(net, saved))
    assert not np.shares_memory(out, x)


@pytest.mark.parametrize(
    "layer", [ReLU, lambda: Conv2d(1, 1, 1, rng=0)], ids=["ReLU", "Conv2d"]
)
def test_other_layer_types_raise(layer):
    net = Sequential(Linear(4, 4, rng=0), Tanh(), layer())
    name = type(net[2]).__name__
    with pytest.raises(TypeError, match=name):
        net.infer(np.zeros((2, 4)))
