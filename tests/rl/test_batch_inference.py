"""Batched policy inference.

``act_batch`` must reproduce ``act`` bit for bit on an M = 1 batch.
"""

import warnings

import numpy as np
import pytest

from repro.rl import PPOAgent, PPOConfig


def make_agent(seed=0, obs_dim=6, act_dim=3, **cfg):
    return PPOAgent(obs_dim, act_dim, PPOConfig(**cfg), rng=seed)


class TestActBatch:
    def test_single_row_matches_act_bitwise(self):
        a = make_agent(seed=7)
        b = make_agent(seed=7)
        rng = np.random.default_rng(3)
        for _ in range(20):
            obs = rng.normal(size=6)
            act_a, logp_a, val_a = a.act(obs)
            acts, logps, vals, norm = b.act_batch(obs.reshape(1, -1))
            np.testing.assert_array_equal(acts[0], act_a)
            assert logps[0] == logp_a
            assert vals[0] == val_a
            # normalizer state advanced identically
            np.testing.assert_array_equal(a.obs_stat.mean, b.obs_stat.mean)
            np.testing.assert_array_equal(a.obs_stat.var, b.obs_stat.var)

    def test_deterministic_single_row_matches(self):
        a = make_agent(seed=7)
        b = make_agent(seed=7)
        obs = np.linspace(-1, 1, 6)
        act_a, logp_a, val_a = a.act(obs, deterministic=True)
        acts, logps, vals, _ = b.act_batch(
            obs.reshape(1, -1), deterministic=True
        )
        np.testing.assert_array_equal(acts[0], act_a)
        assert logps[0] == logp_a
        assert vals[0] == val_a

    def test_batch_shapes(self):
        agent = make_agent(seed=1)
        obs = np.random.default_rng(0).normal(size=(4, 6))
        acts, logps, vals, norm = agent.act_batch(obs)
        assert acts.shape == (4, 3)
        assert logps.shape == (4,)
        assert vals.shape == (4,)
        assert norm.shape == (4, 6)
        assert np.all(np.isfinite(acts))

    def test_empty_batch_leaves_normalizer_untouched(self):
        agent = make_agent(seed=1)
        agent.act_batch(np.random.default_rng(0).normal(size=(4, 6)))
        stat = agent.obs_stat
        mean, var, count = stat.mean.tobytes(), stat.var.tobytes(), stat.count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acts, logps, vals, norm = agent.act_batch(np.zeros((0, 6)))
        assert (acts.shape, logps.shape, vals.shape, norm.shape) == (
            (0, 3), (0,), (0,), (0, 6)
        )
        assert stat.mean.tobytes() == mean
        assert stat.var.tobytes() == var
        assert stat.count == count

    def test_batch_rows_use_distinct_noise(self):
        agent = make_agent(seed=1)
        obs = np.tile(np.linspace(-1, 1, 6), (4, 1))
        acts, _, _, _ = agent.act_batch(obs)
        # Same observation in every row, but each row draws its own
        # Gaussian noise: stochastic actions must differ.
        assert len({tuple(row) for row in acts}) == 4


class TestComputeValuesSkip:
    """Eval rollouts skip the critic forward; actions must not notice."""

    def test_act_without_values_matches_bitwise(self):
        a = make_agent(seed=9)
        b = make_agent(seed=9)
        rng = np.random.default_rng(4)
        for _ in range(10):
            obs = rng.normal(size=6)
            act_a, logp_a, _ = a.act(obs)
            act_b, logp_b, val_b = b.act(obs, compute_values=False)
            assert val_b is None
            np.testing.assert_array_equal(act_b, act_a)
            assert logp_b == logp_a

    def test_act_batch_without_values_matches_bitwise(self):
        a = make_agent(seed=9)
        b = make_agent(seed=9)
        obs = np.random.default_rng(5).normal(size=(4, 6))
        acts_a, logps_a, _, norm_a = a.act_batch(obs)
        acts_b, logps_b, vals_b, norm_b = b.act_batch(obs, compute_values=False)
        assert vals_b is None
        np.testing.assert_array_equal(acts_b, acts_a)
        np.testing.assert_array_equal(logps_b, logps_a)
        np.testing.assert_array_equal(norm_b, norm_a)


class TestValueNetworkBatchIdentity:
    def test_single_value_matches_batch_row(self):
        agent = make_agent(seed=3)
        rng = np.random.default_rng(6)
        for _ in range(5):
            obs = rng.normal(size=6)
            single = agent.value_net.value(obs)
            batch = agent.value_net.values(obs.reshape(1, -1))
            assert single == batch[0]
