"""Box space and running statistics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import Box, RunningMeanStd


class TestBox:
    def test_construction(self):
        box = Box(-1.0, 1.0, (3,))
        assert box.shape == (3,)
        assert box.dim == 3
        np.testing.assert_allclose(box.low, -1.0)

    def test_array_bounds(self):
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]), (2,))
        assert box.contains(np.array([0.5, 0.0]))
        assert not box.contains(np.array([-0.5, 0.0]))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box(1.0, 0.0, (2,))

    def test_sample_within(self):
        box = Box(-2.0, 3.0, (4,))
        for _ in range(10):
            assert box.contains(box.sample(rng=0))

    def test_clip(self):
        box = Box(0.0, 1.0, (2,))
        np.testing.assert_allclose(box.clip(np.array([-5.0, 5.0])), [0.0, 1.0])

    def test_contains_shape_mismatch(self):
        assert not Box(0.0, 1.0, (2,)).contains(np.zeros(3))


class TestRunningMeanStd:
    def test_matches_numpy_single_batch(self, rng):
        data = rng.normal(loc=3.0, scale=2.0, size=(500, 4))
        stat = RunningMeanStd((4,))
        stat.update(data)
        np.testing.assert_allclose(stat.mean, data.mean(axis=0), atol=0.05)
        np.testing.assert_allclose(stat.var, data.var(axis=0), atol=0.1)

    def test_incremental_equals_batch(self, rng):
        data = rng.normal(size=(300, 3))
        whole = RunningMeanStd((3,), epsilon=1e-8)
        whole.update(data)
        parts = RunningMeanStd((3,), epsilon=1e-8)
        for chunk in np.array_split(data, 7):
            parts.update(chunk)
        np.testing.assert_allclose(parts.mean, whole.mean, atol=1e-9)
        np.testing.assert_allclose(parts.var, whole.var, atol=1e-9)

    def test_single_row_update(self):
        stat = RunningMeanStd((2,))
        stat.update(np.array([1.0, 2.0]))  # 1-D row is accepted
        assert stat.count > 1e-4

    def test_zero_row_batch_is_a_no_op(self, rng):
        stat = RunningMeanStd((3,))
        stat.update(rng.normal(size=(4, 3)))
        mean, var, count = stat.mean.tobytes(), stat.var.tobytes(), stat.count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stat.update(np.zeros((0, 3)))
        assert stat.mean.tobytes() == mean
        assert stat.var.tobytes() == var
        assert stat.count == count

    def test_normalize_clip(self, rng):
        stat = RunningMeanStd((1,))
        stat.update(rng.normal(size=(100, 1)))
        out = stat.normalize(np.array([1e9]), clip=5.0)
        np.testing.assert_allclose(out, [5.0])

    def test_shape_mismatch(self):
        stat = RunningMeanStd((3,))
        with pytest.raises(ValueError):
            stat.update(np.zeros((5, 4)))

    @given(seed=st.integers(0, 50), splits=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_merge_associativity_property(self, seed, splits):
        data = np.random.default_rng(seed).normal(size=(120, 2))
        a = RunningMeanStd((2,), epsilon=1e-8)
        a.update(data)
        b = RunningMeanStd((2,), epsilon=1e-8)
        for chunk in np.array_split(data, splits):
            if chunk.size:
                b.update(chunk)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-8)
        np.testing.assert_allclose(a.var, b.var, atol=1e-8)
