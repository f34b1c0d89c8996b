"""Rollout buffer and GAE against a brute-force reference."""

import numpy as np
import pytest

from repro.rl import RolloutBuffer


def reference_gae(rewards, values, dones, gamma, lam, last_value):
    """Straightforward O(n²)-style reference implementation."""
    n = len(rewards)
    adv = np.zeros(n)
    for t in range(n):
        gae = 0.0
        discount = 1.0
        for k in range(t, n):
            next_v = last_value if k == n - 1 else values[k + 1]
            nonterm = 0.0 if dones[k] else 1.0
            delta = rewards[k] + gamma * next_v * nonterm - values[k]
            gae += discount * delta
            if dones[k]:
                break
            discount *= gamma * lam
        adv[t] = gae
    return adv


def fill_buffer(buffer, rewards, values, dones, rng):
    for r, v, d in zip(rewards, values, dones):
        buffer.push(rng.normal(size=3), rng.normal(size=2), r, v, 0.1, d)


class TestGAE:
    @pytest.mark.parametrize("gamma,lam", [(0.95, 0.95), (0.99, 0.9), (0.0, 0.0)])
    def test_matches_reference(self, gamma, lam, rng):
        n = 12
        rewards = rng.normal(size=n)
        values = rng.normal(size=n)
        dones = np.zeros(n, dtype=bool)
        dones[5] = True
        dones[-1] = True
        buffer = RolloutBuffer(gamma=gamma, gae_lambda=lam)
        fill_buffer(buffer, rewards, values, dones, rng)
        batch = buffer.compute(last_value=0.7)
        expected = reference_gae(rewards, values, dones, gamma, lam, 0.7)
        np.testing.assert_allclose(batch.advantages, expected, atol=1e-10)
        np.testing.assert_allclose(batch.returns, expected + values, atol=1e-10)

    def test_gamma_zero_is_myopic(self, rng):
        # γ=0: advantage = r − V(s), exactly one-step.
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.array([0.5, 0.5, 0.5])
        buffer = RolloutBuffer(gamma=0.0, gae_lambda=0.0)
        fill_buffer(buffer, rewards, values, [False, False, True], rng)
        batch = buffer.compute()
        np.testing.assert_allclose(batch.advantages, rewards - values)

    def test_terminal_blocks_bootstrap(self, rng):
        rewards = np.array([0.0, 10.0])
        values = np.array([0.0, 0.0])
        buffer = RolloutBuffer(gamma=1.0, gae_lambda=1.0)
        fill_buffer(buffer, rewards, values, [True, True], rng)
        batch = buffer.compute(last_value=100.0)
        # Step 0 is terminal: no credit from step 1's reward or last_value.
        assert batch.advantages[0] == pytest.approx(0.0)

    def test_empty_buffer_raises(self):
        with pytest.raises(ValueError):
            RolloutBuffer().compute()

    def test_clear(self, rng):
        buffer = RolloutBuffer()
        fill_buffer(buffer, [1.0], [0.0], [True], rng)
        buffer.clear()
        assert len(buffer) == 0


class TestMinibatches:
    def test_cover_every_row_once(self, rng):
        buffer = RolloutBuffer()
        fill_buffer(buffer, rng.normal(size=10), rng.normal(size=10), [False] * 9 + [True], rng)
        batch = buffer.compute()
        seen = []
        for mb in RolloutBuffer.minibatches(batch, 3, rng=0):
            seen.extend(mb.returns.tolist())
        assert sorted(seen) == sorted(batch.returns.tolist())

    def test_minibatch_sizes(self, rng):
        buffer = RolloutBuffer()
        fill_buffer(buffer, rng.normal(size=10), rng.normal(size=10), [False] * 10, rng)
        batch = buffer.compute()
        sizes = [len(mb) for mb in RolloutBuffer.minibatches(batch, 4, rng=0)]
        assert sizes == [4, 4, 2]

    def test_invalid_size(self, rng):
        buffer = RolloutBuffer()
        fill_buffer(buffer, [1.0], [0.0], [True], rng)
        batch = buffer.compute()
        with pytest.raises(ValueError):
            list(RolloutBuffer.minibatches(batch, 0))


class TestValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            RolloutBuffer(gamma=1.5)
        with pytest.raises(ValueError):
            RolloutBuffer(gae_lambda=-0.1)

    def test_push_copies_arrays(self, rng):
        buffer = RolloutBuffer()
        obs = np.zeros(3)
        buffer.push(obs, np.zeros(2), 0.0, 0.0, 0.0, True)
        obs += 99.0
        batch = buffer.compute()
        np.testing.assert_allclose(batch.obs[0], 0.0)


class TestPush:
    def test_row_shape_mismatch_rejected(self, rng):
        buffer = RolloutBuffer()
        fill_buffer(buffer, [1.0, 2.0], [0.0, 0.0], [False, True], rng)
        with pytest.raises(ValueError):
            buffer.push(np.zeros(4), np.zeros(2), 0.0, 0.0, 0.0, False)
        with pytest.raises(ValueError):
            buffer.push(np.zeros(3), np.zeros(1), 0.0, 0.0, 0.0, False)
        assert len(buffer) == 2

    def test_empty_buffer_columns_are_canonical(self, rng):
        cleared = RolloutBuffer()
        fill_buffer(cleared, [1.0], [0.0], [True], rng)
        cleared.clear()
        for buffer in (RolloutBuffer(), cleared):
            columns = buffer.columns()
            assert columns["obs"].shape == (0, 0)
            assert columns["actions"].shape == (0, 0)
            for key in ("rewards", "values", "log_probs", "dones"):
                assert columns[key].shape == (0,)
            assert columns["dones"].dtype == np.uint8

    def test_growth_past_first_allocation_keeps_rows(self, rng):
        n = 150  # past the 64-row first allocation, through two doublings
        stream = {
            "obs": rng.normal(size=(n, 3)),
            "actions": rng.normal(size=(n, 2)),
            "rewards": rng.normal(size=n),
            "values": rng.normal(size=n),
            "log_probs": rng.normal(size=n),
            "dones": (np.arange(n) % 40 == 39).astype(np.uint8),
        }
        buffer = RolloutBuffer()
        for i in range(n):
            buffer.push(*(stream[key][i] for key in stream))
        assert len(buffer) == n
        columns = buffer.columns()
        assert list(columns) == list(stream)
        for key, want in stream.items():
            assert columns[key].dtype == want.dtype
            np.testing.assert_array_equal(columns[key], want)
