"""Eval-mode inference contracts and the fused-forward rollout gate.

Eval-mode Chiron skips both critic forwards; transitions proposed that way
carry no values and must be rejected loudly if someone later tries to
train on them.  Whole seeded episodes must not depend on whether the
policy and value nets run the graph-free ``Sequential.infer`` loop or the
autograd forward.
"""

import numpy as np
import pytest

from repro.core import ChironAgent, ChironConfig, build_environment
from repro.core.mechanism import Observation
from repro.experiments.runner import run_episode
from repro.nn.layers import Sequential
from repro.rl import PPOConfig

from tests.rl.ppo_reference import reference_forward


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


class TestEvalModeValueSkip:
    def _agent_and_obs(self):
        env = make_env()
        ppo = PPOConfig(actor_lr=1e-3, critic_lr=1e-3, hidden=(32, 32))
        # deterministic_eval=False keeps eval on the sampled-action path,
        # so eval-vs-train prices are comparable stream for stream.
        agent = ChironAgent(
            env,
            ChironConfig(exterior=ppo, inner=ppo, deterministic_eval=False),
            rng=0,
        )
        state, _ = env.reset()
        return env, agent, Observation(state, env.ledger.remaining, 0)

    def test_eval_prices_match_training_prices_bitwise(self):
        # Skipping the critic forwards must not perturb the action path:
        # same weights, same noise stream, same prices.
        env_t, train_agent, obs_t = self._agent_and_obs()
        env_e, eval_agent, obs_e = self._agent_and_obs()
        eval_agent.eval_mode()
        train_agent.begin_episode(obs_t)
        eval_agent.begin_episode(obs_e)
        np.testing.assert_array_equal(
            eval_agent.propose_prices(obs_e), train_agent.propose_prices(obs_t)
        )

    def test_observe_after_eval_proposal_raises(self):
        env, agent, obs = self._agent_and_obs()
        agent.eval_mode()
        agent.begin_episode(obs)
        prices = agent.propose_prices(obs)
        *_, info = env.step(prices)
        agent.train_mode()
        with pytest.raises(RuntimeError, match="eval mode"):
            agent.observe(prices, info["step_result"])


def _agent(**config):
    env = build_environment(seed=0, n_nodes=5, budget=100.0).env
    agent = ChironAgent(
        env, ChironConfig(**config), rng=np.random.default_rng(42)
    )
    return env, agent


def seeded_episodes(episodes=8):
    """Per-episode results of seeded eval-mode episodes, run one by one.

    deterministic_eval=False keeps the stochastic acting path (normalizer
    updates + Gaussian sampling) under eval mode.
    """
    env, agent = _agent(deterministic_eval=False)
    agent.eval_mode()
    results = []
    for seed in range(episodes):
        r, _ = run_episode(env, agent, seed=seed)
        results.append(
            (
                r.rounds,
                r.final_accuracy,
                r.mean_time_efficiency,
                r.total_learning_time,
                r.budget_spent,
                r.reward_exterior,
                r.reward_inner,
                r.wasted_rounds,
            )
        )
    return results


def collected_episode():
    """One training-mode collected episode, every column as raw bytes.

    Training mode runs both critic forwards, so the stored values put the
    value nets inside the gate too.
    """
    env, agent = _agent()
    agent.begin_collect(7)
    run_episode(env, agent, seed=3)
    return {
        layer: {
            name: (column.shape, column.dtype.str, column.tobytes())
            for name, column in sorted(columns.items())
        }
        for layer, columns in agent.take_collected().items()
    }


class TestFusedRolloutIdentity:
    def test_fused_rerun_and_autograd_forward_agree(self, monkeypatch):
        kernel = (seeded_episodes(), collected_episode())
        rerun = (seeded_episodes(), collected_episode())
        calls = []

        def autograd_forward(net, x):
            calls.append(1)
            return reference_forward(net, x)

        # Every policy and value forward now builds the autograd forward
        # instead of running the Sequential.infer loop.
        monkeypatch.setattr(Sequential, "infer", autograd_forward)
        autograd = (seeded_episodes(), collected_episode())
        assert calls
        assert len(kernel[0]) == 8
        assert len(kernel[1]["exterior"]["values"][2]) > 0
        assert kernel == rerun
        assert kernel == autograd
