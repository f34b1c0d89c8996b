"""The prototypes' Gaussian blur against ``scipy.ndimage``, byte for byte.

``SyntheticImageTask`` smooths its prototype noise with a numpy filter
that repeats ``scipy.ndimage.gaussian_filter``'s arithmetic, so the
synthetic tasks, and every real-accuracy number drawn from them, stay the
ones scipy produced.  scipy is only the reference here.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.datasets import TASK_SPECS, SyntheticImageTask, synthetic
from repro.datasets.synthetic import _gaussian_blur

SEEDS_PER_SPEC = 200
# Radius int(4σ + 0.5): 0, 0, 1, 2, 7, 12 and 100 (wider than any image).
EDGE_SIGMAS = [0.05, 0.1, 0.125, 0.5, 1.7, 3.0, 25.0]
EDGE_SIZES = [1, 2, 5, 28, 32]
SEEDS_PER_EDGE = 10


def _blur(raw, sigma):
    return _gaussian_blur(_gaussian_blur(raw, sigma, axis=3), sigma, axis=4)


def _reference(raw, sigma):
    return ndimage.gaussian_filter(raw, sigma=(0, 0, 0, sigma, sigma))


def _assert_same_bytes(got, want, case):
    assert got.shape == want.shape and got.dtype == want.dtype, case
    assert got.tobytes() == want.tobytes(), (
        f"{case}: max abs difference {np.abs(got - want).max()!r}"
    )


@pytest.mark.parametrize("name", sorted(TASK_SPECS))
def test_matches_scipy_on_task_prototype_noise(name):
    spec = TASK_SPECS[name]
    shape = (spec.num_classes, spec.prototypes_per_class) + spec.image_shape
    for seed in range(SEEDS_PER_SPEC):
        raw = np.random.default_rng(seed).normal(size=shape)
        _assert_same_bytes(
            _blur(raw, spec.smoothness), _reference(raw, spec.smoothness), seed
        )


@pytest.mark.parametrize("size", EDGE_SIZES)
@pytest.mark.parametrize("sigma", EDGE_SIGMAS)
def test_matches_scipy_at_edge_radii_and_sizes(sigma, size):
    # Rows and columns differ in length, so a swapped axis shows.
    for seed in range(SEEDS_PER_EDGE):
        raw = np.random.default_rng(seed).normal(size=(2, 1, 3, size, size + 1))
        _assert_same_bytes(_blur(raw, sigma), _reference(raw, sigma), seed)


@pytest.mark.parametrize("name", sorted(TASK_SPECS))
def test_task_prototypes_equal_scipy_built_ones(name, monkeypatch):
    spec = TASK_SPECS[name]
    ours = [SyntheticImageTask(spec, rng=seed)._prototypes for seed in range(3)]
    monkeypatch.setattr(
        synthetic,
        "_gaussian_blur",
        lambda image, sigma, axis: ndimage.gaussian_filter1d(image, sigma, axis),
    )
    for seed, prototypes in enumerate(ours):
        reference = SyntheticImageTask(spec, rng=seed)._prototypes
        _assert_same_bytes(prototypes, reference, seed)
