"""Synthetic stand-ins for MNIST, Fashion-MNIST and CIFAR-10.

No network access is available in this environment, so the three benchmark
datasets are replaced by synthetic class-conditional image distributions
(DESIGN.md §3, substitution 2).  Each class is defined by one or more
smooth "prototype" images (band-limited Gaussian noise); a sample is a
randomly chosen prototype with a random spatial shift, per-sample contrast
jitter and additive pixel noise.

Three properties of the real datasets matter to the incentive layer and are
preserved:

1. **Shapes / classes** — 1×28×28 or 3×32×32 images, 10 classes.
2. **Learnability** — a small CNN trained by SGD improves monotonically
   (in expectation) with diminishing returns.
3. **Difficulty ordering** — ``mnist`` < ``fashion_mnist`` < ``cifar10``,
   controlled by prototype count, shift range and noise level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.datasets.base import ArrayDataset
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TaskSpec:
    """Generator parameters for one synthetic classification task."""

    name: str
    channels: int
    image_size: int
    num_classes: int = 10
    prototypes_per_class: int = 1
    smoothness: float = 3.0
    noise_std: float = 0.3
    max_shift: int = 2
    contrast_jitter: float = 0.2
    model: str = "mcmahan_cnn"

    def __post_init__(self):
        check_positive("channels", self.channels)
        check_positive("image_size", self.image_size)
        check_positive("num_classes", self.num_classes)
        check_positive("prototypes_per_class", self.prototypes_per_class)
        check_positive("smoothness", self.smoothness)
        check_positive("noise_std", self.noise_std, strict=False)
        check_positive("max_shift", self.max_shift, strict=False)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return (self.channels, self.image_size, self.image_size)


#: Canonical task registry. Difficulty rises top to bottom, mirroring the
#: MNIST < Fashion-MNIST < CIFAR-10 ordering in the paper's evaluation.
TASK_SPECS: Dict[str, TaskSpec] = {
    "mnist": TaskSpec(
        name="mnist",
        channels=1,
        image_size=28,
        prototypes_per_class=1,
        smoothness=3.0,
        noise_std=3.0,
        max_shift=2,
        model="mcmahan_cnn",
    ),
    "fashion_mnist": TaskSpec(
        name="fashion_mnist",
        channels=1,
        image_size=28,
        prototypes_per_class=2,
        smoothness=2.5,
        noise_std=3.5,
        max_shift=2,
        model="mcmahan_cnn",
    ),
    "cifar10": TaskSpec(
        name="cifar10",
        channels=3,
        image_size=32,
        prototypes_per_class=3,
        smoothness=2.0,
        noise_std=4.5,
        max_shift=3,
        model="lenet5",
    ),
}


def _gaussian_blur(image: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    """``image`` smoothed along ``axis`` by a Gaussian of width ``sigma``.

    Equals ``scipy.ndimage.gaussian_filter1d(image, sigma, axis)`` byte for
    byte, because it repeats scipy's arithmetic: the kernel is cut at
    ``int(4σ + 0.5)`` and divided by its sum, each line is extended by
    mirroring (scipy's ``reflect``, numpy's ``symmetric``), and each output
    is ``centre · w[0]`` plus ``(left_j + right_j) · w[j]`` for ``j`` from
    the radius down to 1, the symmetric branch of scipy's correlation.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = weights / weights.sum()
    width = [(0, 0)] * image.ndim
    width[axis] = (radius, radius)
    lines = np.moveaxis(np.pad(image, width, mode="symmetric"), axis, -1)
    n = image.shape[axis]
    out = lines[..., radius : radius + n] * weights[radius]
    for j in range(radius, 0, -1):
        left = lines[..., radius - j : radius - j + n]
        right = lines[..., radius + j : radius + j + n]
        out += (left + right) * weights[radius - j]
    return np.moveaxis(out, -1, axis)


class SyntheticImageTask:
    """A frozen synthetic classification task.

    Prototypes are drawn once from the task seed; :meth:`sample` then draws
    arbitrarily many i.i.d. labeled examples.  Two tasks built with the same
    spec and seed are identical.
    """

    def __init__(self, spec: TaskSpec, rng: RNGLike = None):
        self.spec = spec
        gen = as_generator(rng)
        self._prototypes = self._build_prototypes(gen)

    def _build_prototypes(self, gen: np.random.Generator) -> np.ndarray:
        """Band-limited noise prototypes, unit-normalized per image."""
        spec = self.spec
        shape = (
            spec.num_classes,
            spec.prototypes_per_class,
            spec.channels,
            spec.image_size,
            spec.image_size,
        )
        raw = gen.normal(size=shape)
        smooth = _gaussian_blur(raw, spec.smoothness, axis=3)
        smooth = _gaussian_blur(smooth, spec.smoothness, axis=4)
        # Normalize each prototype image to zero mean / unit std so all
        # classes carry equal signal energy.
        flat = smooth.reshape(spec.num_classes, spec.prototypes_per_class, -1)
        flat = flat - flat.mean(axis=-1, keepdims=True)
        std = flat.std(axis=-1, keepdims=True)
        std[std == 0] = 1.0
        flat = flat / std
        return flat.reshape(shape)

    def sample(self, n: int, rng: RNGLike = None) -> ArrayDataset:
        """Draw ``n`` labeled examples (balanced labels in expectation)."""
        check_positive("n", n)
        gen = as_generator(rng)
        labels = gen.integers(0, self.spec.num_classes, size=n)
        return self._render(labels, gen)

    def sample_class_conditional(
        self, counts: np.ndarray, rng: RNGLike = None
    ) -> ArrayDataset:
        """Draw samples with an exact per-class count vector.

        Used by non-IID partitioners that need precise label histograms.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.spec.num_classes,):
            raise ValueError(
                f"counts must have shape ({self.spec.num_classes},), "
                f"got {counts.shape}"
            )
        if counts.sum() <= 0:
            raise ValueError("counts must sum to a positive total")
        gen = as_generator(rng)
        labels = np.repeat(np.arange(self.spec.num_classes), counts)
        gen.shuffle(labels)
        return self._render(labels, gen)

    def _render(self, labels: np.ndarray, gen: np.random.Generator) -> ArrayDataset:
        """Draw one image per label (prototype, cyclic shift, contrast, noise)."""
        spec = self.spec
        n = labels.shape[0]
        variants = gen.integers(0, spec.prototypes_per_class, size=n)
        shifts = gen.integers(-spec.max_shift, spec.max_shift + 1, size=(n, 2))
        # np.roll by (dy, dx) reads pixel (y - dy, x - dx), wrapping around.
        size = spec.image_size
        rows = (np.arange(size) - shifts[:, :1]) % size
        cols = (np.arange(size) - shifts[:, 1:]) % size
        images = self._prototypes[
            labels[:, None, None, None],
            variants[:, None, None, None],
            np.arange(spec.channels)[:, None, None],
            rows[:, None, :, None],
            cols[:, None, None, :],
        ]
        contrast = 1.0 + spec.contrast_jitter * gen.normal(size=(n, 1, 1, 1))
        images = images * contrast + spec.noise_std * gen.normal(size=images.shape)
        return ArrayDataset(images, labels)

    def train_test_split(
        self, train_size: int, test_size: int, rng: RNGLike = None
    ) -> Tuple[ArrayDataset, ArrayDataset]:
        """Independent train and test draws from the same distribution."""
        gen = as_generator(rng)
        return self.sample(train_size, gen), self.sample(test_size, gen)


def make_task(name: str, rng: RNGLike = None) -> SyntheticImageTask:
    """Build a registered task (``mnist``, ``fashion_mnist``, ``cifar10``)."""
    try:
        spec = TASK_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown task {name!r}; available: {sorted(TASK_SPECS)}"
        ) from None
    return SyntheticImageTask(spec, rng=rng)
