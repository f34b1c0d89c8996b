"""A2C agent (unclipped ablation of PPO)."""

import numpy as np
import pytest

from repro.rl import A2CAgent, PPOConfig

from tests.rl.ppo_reference import a2c_reference_step
from tests.rl.test_fused_update import DIMS, HIDDEN, ROWS, run_pair


def fast_config(**overrides):
    params = dict(
        actor_lr=3e-3, critic_lr=3e-3, hidden=(32, 32), lr_decay_every=10_000,
    )
    params.update(overrides)
    return PPOConfig(**params)


class TestA2C:
    def test_single_epoch_forced(self):
        agent = A2CAgent(4, 2, config=fast_config(update_epochs=10), rng=0)
        assert agent.config.update_epochs == 1

    def test_update_diagnostics(self, rng):
        agent = A2CAgent(4, 2, config=fast_config(), rng=0)
        for i in range(16):
            obs = rng.normal(size=4)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, rng.normal(), v, lp, done=(i == 15))
        stats = agent.update()
        assert stats["clip_fraction"] == 0.0
        assert "approx_kl" in stats

    def test_learns_bandit(self):
        agent = A2CAgent(3, 1, config=fast_config(), rng=0)
        obs = np.array([0.5, -0.2, 1.0])
        for _episode in range(80):
            for step in range(16):
                a, lp, v = agent.act(obs)
                reward = -((a[0] - 2.0) ** 2)
                agent.store(obs, a, reward, v, lp, done=(step == 15))
            agent.update()
        mean, _ = agent.policy.act(agent._normalize(obs), deterministic=True)
        assert abs(mean[0] - 2.0) < 0.8

    def test_checkpoint_compatible(self, tmp_path):
        from repro.rl import load_ppo, save_ppo

        agent = A2CAgent(4, 2, config=fast_config(), rng=0)
        path = save_ppo(agent, tmp_path / "a2c.npz")
        clone = A2CAgent(4, 2, config=fast_config(), rng=9)
        load_ppo(clone, path)
        np.testing.assert_allclose(
            clone.policy.flat_parameters(), agent.policy.flat_parameters()
        )


class TestChironWithA2C:
    def test_config_validation(self):
        from repro.core import ChironConfig

        with pytest.raises(ValueError, match="algorithm"):
            ChironConfig(algorithm="dqn")

    def test_full_training(self, surrogate_env):
        from repro.core import ChironAgent, ChironConfig
        from repro.experiments.runner import train_mechanism

        env = surrogate_env.env
        ppo_cfg = fast_config()
        agent = ChironAgent(
            env,
            ChironConfig(exterior=ppo_cfg, inner=ppo_cfg, algorithm="a2c"),
            rng=0,
        )
        assert isinstance(agent.exterior, A2CAgent)
        history = train_mechanism(env, agent, episodes=5)
        assert len(history) == 5


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"obs{d[0]}-act{d[1]}")
@pytest.mark.parametrize("hidden", HIDDEN, ids=lambda h: "h" + "x".join(map(str, h)))
class TestA2CStepMatchesReference:
    """``_update_minibatch`` against :func:`a2c_reference_step`, bit for bit.

    Every gradient, parameter, Adam moment and returned statistic over
    three consecutive steps, as ``test_fused_update.py`` checks PPO's.
    """

    def check(self, hidden, dims, rows, seed, zero_advantages=False, **overrides):
        config = PPOConfig(hidden=hidden, actor_lr=1e-2, critic_lr=1e-2, **overrides)
        agent = A2CAgent(*dims, config=config, rng=seed)
        rng = np.random.default_rng(seed)
        run_pair(agent, rows, rng, zero_advantages, reference_fn=a2c_reference_step)

    def test_random_minibatches(self, hidden, dims, rows):
        self.check(hidden, dims, rows, seed=rows)

    def test_zero_advantages(self, hidden, dims, rows):
        self.check(hidden, dims, rows, seed=100 + rows, zero_advantages=True)

    def test_unclipped_gradients(self, hidden, dims, rows):
        self.check(hidden, dims, rows, seed=300 + rows, max_grad_norm=0.0)
