"""PPO agent: mechanics and learning."""

import builtins
import copy
import math
import pickle

import numpy as np
import pytest

from repro.autograd.gradcheck import gradcheck
from repro.nn import Parameter
from repro.rl import PPOAgent, PPOConfig
from repro.rl.buffer import Batch
from repro.rl.ppo import _clip_gradients

from tests.rl.ppo_reference import actor_loss, critic_loss


def fast_config(**overrides):
    params = dict(
        actor_lr=3e-3,
        critic_lr=3e-3,
        hidden=(32, 32),
        update_epochs=5,
        lr_decay_every=10_000,
    )
    params.update(overrides)
    return PPOConfig(**params)


class TestMechanics:
    def test_act_and_store(self, rng):
        agent = PPOAgent(4, 2, config=fast_config(), rng=0)
        obs = rng.normal(size=4)
        action, log_prob, value = agent.act(obs)
        assert action.shape == (2,)
        agent.store(obs, action, 1.0, value, log_prob, done=True)
        assert len(agent.buffer) == 1

    def test_update_clears_buffer_and_counts(self, rng):
        agent = PPOAgent(4, 2, config=fast_config(), rng=0)
        for i in range(8):
            obs = rng.normal(size=4)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, float(i), v, lp, done=(i == 7))
        stats = agent.update()
        assert len(agent.buffer) == 0
        assert agent.episodes_seen == 1
        for key in ("actor_loss", "critic_loss", "entropy", "actor_lr"):
            assert key in stats

    def test_update_empty_raises(self):
        agent = PPOAgent(4, 2, config=fast_config(), rng=0)
        with pytest.raises(ValueError):
            agent.update()

    def test_ready_to_update_threshold(self, rng):
        agent = PPOAgent(4, 2, config=fast_config(min_update_batch=5), rng=0)
        for i in range(3):
            obs = rng.normal(size=4)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, 0.0, v, lp, done=False)
        assert not agent.ready_to_update()
        for i in range(2):
            obs = rng.normal(size=4)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, 0.0, v, lp, done=False)
        assert agent.ready_to_update()

    def test_lr_decays_on_schedule(self, rng):
        agent = PPOAgent(3, 1, config=fast_config(lr_decay_every=1, lr_decay=0.5), rng=0)
        initial = agent.actor_opt.lr
        obs = rng.normal(size=3)
        a, lp, v = agent.act(obs)
        agent.store(obs, a, 1.0, v, lp, done=True)
        agent.update()
        assert agent.actor_opt.lr == pytest.approx(initial * 0.5)

    def test_obs_normalization_optional(self, rng):
        agent = PPOAgent(3, 1, config=fast_config(normalize_obs=False), rng=0)
        assert agent.obs_stat is None
        agent.act(rng.normal(size=3))  # must not crash

    def test_deterministic_act(self, rng):
        agent = PPOAgent(3, 1, config=fast_config(), rng=0)
        obs = rng.normal(size=3)
        a1, _, _ = agent.act(obs, deterministic=True)
        a2, _, _ = agent.act(obs, deterministic=True)
        np.testing.assert_allclose(a1, a2)


class TestCopyAfterActing:
    """An agent that has acted copies and pickles with its own weights.

    Training snapshots ``(env, mechanism)`` for seeded evaluation and for
    every seeded training round, so a net must hold no state beyond its
    modules.
    """

    def _acted(self):
        agent = PPOAgent(6, 2, rng=0)
        obs = np.random.default_rng(3).normal(size=6)
        agent.act(obs)
        return agent, obs

    def test_pickle_round_trip(self):
        agent, obs = self._acted()
        clone = pickle.loads(pickle.dumps(agent))
        action, _, value = clone.act(obs, deterministic=True)
        expected, _, expected_value = agent.act(obs, deterministic=True)
        assert action.tobytes() == expected.tobytes()
        assert value == expected_value

    def test_deepcopy_acts_with_its_own_weights(self):
        agent, obs = self._acted()
        expected, _, expected_value = agent.act(obs, deterministic=True)
        clone = copy.deepcopy(agent)
        for param in [*clone.policy.parameters(), *clone.value_net.parameters()]:
            param.data[...] = 0.0
        action, _, value = clone.act(obs, deterministic=True)
        np.testing.assert_array_equal(action, np.zeros(2))
        assert value == 0.0
        action, _, value = agent.act(obs, deterministic=True)
        assert action.tobytes() == expected.tobytes()
        assert value == expected_value


class TestCollectedPayload:
    """``take_collected`` returns a seeded collect-only episode as arrays."""

    def _collect(self, steps):
        agent = PPOAgent(4, 2, config=fast_config(), rng=0)
        agent.begin_collect(3)
        rng = np.random.default_rng(8)
        for i in range(steps):
            obs = rng.normal(size=4)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, float(i), v, lp, done=(i == steps - 1))
        return agent.take_collected()

    def test_schema(self):
        payload = self._collect(5)
        assert sorted(payload) == sorted(
            ["obs", "actions", "rewards", "values", "log_probs", "dones", "raw_obs"]
        )
        for key, value in payload.items():
            expected = np.uint8 if key == "dones" else np.float64
            assert value.dtype == expected, key
        assert payload["obs"].shape == (5, 4)
        assert payload["raw_obs"].shape == (5, 4)
        assert payload["actions"].shape == (5, 2)
        for key in ("rewards", "values", "log_probs", "dones"):
            assert payload[key].shape == (5,), key

    def test_empty_episode_keeps_the_schema(self):
        payload = self._collect(0)
        assert payload["dones"].dtype == np.uint8
        assert payload["obs"].ndim == payload["raw_obs"].ndim == 2
        assert all(value.shape[0] == 0 for value in payload.values())


class TestLossGradcheck:
    def test_full_ppo_loss_gradcheck(self):
        # Finite-difference check of the full PPO objective (clipped
        # surrogate + entropy + value regression) that the fused
        # minibatch step must reproduce.  Tiny nets keep the
        # central-difference sweep affordable.
        agent = PPOAgent(3, 2, config=PPOConfig(hidden=(4,)), rng=1)
        rng = np.random.default_rng(5)
        mb = Batch(
            obs=rng.normal(size=(6, 3)),
            actions=rng.normal(size=(6, 2)),
            log_probs=rng.normal(size=6) * 0.1,
            advantages=rng.normal(size=6),
            returns=rng.normal(size=6),
        )

        def ppo_loss(*params):
            return actor_loss(agent, mb)[0] + critic_loss(agent, mb)

        params = list(agent.policy.parameters()) + list(agent.value_net.parameters())
        assert gradcheck(ppo_loss, params, atol=1e-5, rtol=1e-3)


class TestClipGradients:
    def test_norm_sums_left_to_right(self, monkeypatch):
        # Squared norms 1.0 then eight 2**-53: each left-to-right addition
        # rounds back to 1.0, a compensated sum (Python >= 3.12's builtin
        # ``sum``) gives 1 + 2**-50.  The norm must not follow the builtin.
        params = [Parameter(np.zeros(1))] + [Parameter(np.zeros(2)) for _ in range(8)]
        params[0].grad = np.array([1.0])
        for p in params[1:]:
            p.grad = np.array([2.0**-27, 2.0**-27])
        with monkeypatch.context() as patch:
            patch.setattr(
                builtins, "sum", lambda items, start=0: math.fsum(items) + start
            )
            norm = _clip_gradients(params, max_norm=0.0)
        assert norm == 1.0


class TestLearning:
    def test_learns_continuous_bandit(self):
        """Reward −(a−2)²: the policy mean must move toward 2."""
        agent = PPOAgent(3, 1, config=fast_config(), rng=0)
        obs = np.array([0.5, -0.2, 1.0])
        for _episode in range(50):
            for step in range(16):
                a, lp, v = agent.act(obs)
                reward = -((a[0] - 2.0) ** 2)
                agent.store(obs, a, reward, v, lp, done=(step == 15))
            agent.update()
        mean, _ = agent.policy.act(agent._normalize(obs), deterministic=True)
        assert abs(mean[0] - 2.0) < 0.6

    def test_state_dependent_bandit(self):
        """Optimal action flips sign with the observation."""
        rng = np.random.default_rng(1)
        agent = PPOAgent(1, 1, config=fast_config(), rng=0)
        for _episode in range(80):
            for step in range(16):
                target = rng.choice([-1.0, 1.0])
                obs = np.array([target])
                a, lp, v = agent.act(obs)
                reward = -((a[0] - target) ** 2)
                agent.store(obs, a, reward, v, lp, done=(step == 15))
            agent.update()
        pos, _ = agent.policy.act(agent._normalize(np.array([1.0])), deterministic=True)
        neg, _ = agent.policy.act(agent._normalize(np.array([-1.0])), deterministic=True)
        assert pos[0] > neg[0] + 0.5


class TestConfigValidation:
    def test_invalid(self):
        with pytest.raises(ValueError):
            PPOConfig(actor_lr=0.0)
        with pytest.raises(ValueError):
            PPOConfig(gamma=1.5)
        with pytest.raises(ValueError):
            PPOConfig(clip_ratio=0.0)
        with pytest.raises(ValueError):
            PPOConfig(lr_decay=0.0)
