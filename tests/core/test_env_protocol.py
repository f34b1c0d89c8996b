"""The Gymnasium-style environment protocol (API redesign PR).

Covers the 5-tuple step contract, the terminated/truncated split and
seeded reset reproducibility.
"""

import numpy as np
import pytest

from repro.core import StepResult, build_environment


def make_env(**kwargs):
    defaults = dict(
        task_name="mnist",
        n_nodes=4,
        budget=20.0,
        accuracy_mode="surrogate",
        seed=0,
        max_rounds=120,
    )
    defaults.update(kwargs)
    return build_environment(**defaults).env


def mid_prices(env):
    return np.sqrt(env.price_floors * env.price_caps)


class TestResetContract:
    def test_reset_returns_obs_and_info(self):
        env = make_env()
        obs, info = env.reset()
        assert isinstance(obs, np.ndarray)
        assert obs.shape == (env.state_dim,)
        assert info["round_index"] == 0
        assert info["remaining_budget"] == pytest.approx(env.ledger.remaining)
        assert 0.0 <= info["accuracy"] <= 1.0

    def test_seeded_reset_reproducible_after_prior_episodes(self):
        """reset(seed=s) pins *every* stochastic stream regardless of history.

        Churn, faults, AND the learning-noise stream rebase on a seeded
        reset.  The accuracy comparison pins a real bug the repro.testing
        differential tooling surfaced: the learning noise used to keep
        advancing across episodes, so a seeded reset on a warm environment
        produced a different accuracy trajectory than on a fresh one.
        """

        def trajectory(env):
            env.reset(seed=123)
            prices = mid_prices(env)
            out = []
            while not env.done:
                *_, info = env.step(prices)
                out.append(info["step_result"])
            return out

        a = make_env(availability=0.7)
        b = make_env(availability=0.7)
        # Burn two unseeded episodes on `a` so its substream counter differs.
        for _ in range(2):
            a.reset()
            while not a.done:
                a.step(mid_prices(a))
        ta, tb = trajectory(a), trajectory(b)
        assert len(ta) == len(tb)
        for ra, rb in zip(ta, tb):
            assert ra.participants == rb.participants
            assert ra.unavailable == rb.unavailable
            assert ra.accuracy == rb.accuracy
            assert ra.reward_exterior == rb.reward_exterior
            np.testing.assert_array_equal(ra.payments, rb.payments)
            np.testing.assert_array_equal(ra.state, rb.state)

    def test_unseeded_reset_keeps_learning_stream_advancing(self):
        """Without a seed, episodes stay decorrelated (training behavior)."""
        env = make_env(availability=1.0)

        def final_accuracy():
            env.reset()
            while not env.done:
                env.step(mid_prices(env))
            return env.accuracy

        assert final_accuracy() != final_accuracy()


class TestStepContract:
    def test_step_five_tuple(self):
        env = make_env()
        env.reset()
        obs, reward, terminated, truncated, info = env.step(mid_prices(env))
        assert isinstance(obs, np.ndarray) and obs.shape == (env.state_dim,)
        assert isinstance(reward, float)
        assert isinstance(terminated, bool) and isinstance(truncated, bool)
        result = info["step_result"]
        assert isinstance(result, StepResult)
        assert reward == result.reward_exterior
        assert info["reward_inner"] == result.reward_inner
        assert info["remaining_budget"] == result.remaining_budget
        assert info["round_index"] == result.round_index
        assert info["accuracy"] == result.accuracy
        np.testing.assert_array_equal(obs, result.state)

    def test_budget_exhaustion_terminates(self):
        env = make_env()
        env.reset()
        terminated = truncated = False
        while not env.done:
            _, _, terminated, truncated, _ = env.step(mid_prices(env))
        assert terminated and not truncated

    def test_max_rounds_truncates(self):
        env = make_env(budget=1e6, max_rounds=3)
        env.reset()
        terminated = truncated = False
        while not env.done:
            _, _, terminated, truncated, _ = env.step(mid_prices(env))
        assert truncated and not terminated
        assert env.round_index == 3

    def test_step_after_done_raises(self):
        env = make_env(budget=1e6, max_rounds=1)
        env.reset()
        env.step(mid_prices(env))
        with pytest.raises(RuntimeError, match="reset"):
            env.step(mid_prices(env))
