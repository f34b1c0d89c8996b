"""Synthetic task generators."""

import numpy as np
import pytest

from repro.datasets import TASK_SPECS, SyntheticImageTask, TaskSpec, make_task


class TestTaskSpec:
    def test_registry_entries(self):
        assert set(TASK_SPECS) == {"mnist", "fashion_mnist", "cifar10"}
        assert TASK_SPECS["mnist"].image_shape == (1, 28, 28)
        assert TASK_SPECS["cifar10"].image_shape == (3, 32, 32)

    def test_difficulty_ordering(self):
        # Noise rises with task difficulty: MNIST < Fashion < CIFAR.
        assert (
            TASK_SPECS["mnist"].noise_std
            < TASK_SPECS["fashion_mnist"].noise_std
            < TASK_SPECS["cifar10"].noise_std
        )

    def test_model_assignment(self):
        assert TASK_SPECS["mnist"].model == "mcmahan_cnn"
        assert TASK_SPECS["cifar10"].model == "lenet5"

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(name="bad", channels=0, image_size=28)
        with pytest.raises(ValueError):
            TaskSpec(name="bad", channels=1, image_size=28, noise_std=-1.0)


class TestSampling:
    def test_shapes_and_labels(self):
        task = make_task("mnist", rng=0)
        ds = task.sample(50, rng=1)
        assert ds.x.shape == (50, 1, 28, 28)
        assert ds.y.shape == (50,)
        assert ds.y.min() >= 0 and ds.y.max() < 10

    def test_cifar_shape(self):
        ds = make_task("cifar10", rng=0).sample(10, rng=1)
        assert ds.x.shape == (10, 3, 32, 32)

    def test_same_seed_same_data(self):
        t1, t2 = make_task("mnist", rng=5), make_task("mnist", rng=5)
        d1, d2 = t1.sample(20, rng=9), t2.sample(20, rng=9)
        np.testing.assert_allclose(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_different_task_seed_different_prototypes(self):
        t1, t2 = make_task("mnist", rng=1), make_task("mnist", rng=2)
        assert not np.allclose(t1._prototypes, t2._prototypes)

    def test_classes_distinguishable(self):
        # Noise-free prototypes of different classes must differ materially.
        task = make_task("mnist", rng=0)
        protos = task._prototypes[:, 0].reshape(10, -1)
        gram = protos @ protos.T
        diag = np.diag(gram)
        off = gram - np.diag(diag)
        assert diag.min() > np.abs(off).max()

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            make_task("imagenet")

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            make_task("mnist", rng=0).sample(0)


class TestClassConditional:
    def test_exact_counts(self):
        task = make_task("mnist", rng=0)
        counts = np.array([3, 0, 0, 5, 0, 0, 0, 0, 2, 0])
        ds = task.sample_class_conditional(counts, rng=1)
        np.testing.assert_array_equal(ds.class_histogram(10), counts)

    def test_rejects_wrong_shape(self):
        task = make_task("mnist", rng=0)
        with pytest.raises(ValueError):
            task.sample_class_conditional(np.ones(5, dtype=int))

    def test_rejects_zero_total(self):
        task = make_task("mnist", rng=0)
        with pytest.raises(ValueError):
            task.sample_class_conditional(np.zeros(10, dtype=int))


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = make_task("mnist", rng=0).train_test_split(30, 10, rng=1)
        assert len(train) == 30 and len(test) == 10

    def test_independent_draws(self):
        train, test = make_task("mnist", rng=0).train_test_split(10, 10, rng=1)
        assert not np.allclose(train.x, test.x)


def _roll_loop_render(task, labels, gen):
    """Images for ``labels`` as a per-image ``np.roll`` loop renders them."""
    spec = task.spec
    n = labels.shape[0]
    variants = gen.integers(0, spec.prototypes_per_class, size=n)
    images = task._prototypes[labels, variants].copy()
    shifts = gen.integers(-spec.max_shift, spec.max_shift + 1, size=(n, 2))
    for i in range(n):
        dy, dx = shifts[i]
        if dy or dx:
            images[i] = np.roll(images[i], (dy, dx), axis=(1, 2))
    contrast = 1.0 + spec.contrast_jitter * gen.normal(size=(n, 1, 1, 1))
    return images * contrast + spec.noise_std * gen.normal(size=images.shape)


RENDER_SPECS = [
    TASK_SPECS["mnist"],
    TASK_SPECS["cifar10"],
    # Shifts up to 5 on a 3-pixel image wrap around more than once.
    TaskSpec(
        name="tiny", channels=2, image_size=3, prototypes_per_class=2, max_shift=5
    ),
]


class TestRenderingMatchesRollLoop:
    @pytest.mark.parametrize("spec", RENDER_SPECS, ids=lambda s: s.name)
    def test_sample(self, spec):
        task = SyntheticImageTask(spec, rng=0)
        for seed, n in [(0, 1), (1, 120), (2, 500)]:
            gen = np.random.default_rng(seed)
            labels = gen.integers(0, spec.num_classes, size=n)
            want = _roll_loop_render(task, labels, gen)
            got = task.sample(n, rng=seed)
            assert got.x.tobytes() == want.tobytes()
            np.testing.assert_array_equal(got.y, labels)

    @pytest.mark.parametrize("spec", RENDER_SPECS, ids=lambda s: s.name)
    def test_class_conditional(self, spec):
        task = SyntheticImageTask(spec, rng=0)
        counts = np.arange(spec.num_classes) * 7 % 11
        for seed in range(3):
            gen = np.random.default_rng(seed)
            labels = np.repeat(np.arange(spec.num_classes), counts)
            gen.shuffle(labels)
            want = _roll_loop_render(task, labels, gen)
            got = task.sample_class_conditional(counts, rng=seed)
            assert got.x.tobytes() == want.tobytes()
            np.testing.assert_array_equal(got.y, labels)
