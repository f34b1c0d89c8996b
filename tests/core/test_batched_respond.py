"""Cross-replica batched best response and eval-mode inference contracts.

The vectorized env answers all M replicas with ONE population call on the
(M, n) price matrix — sound only because spawned replicas share one
immutable population and the SoA best response is pure elementwise math
(row-for-row bit-identical to M separate calls).  Eval-mode Chiron skips
both critic forwards; transitions proposed that way carry no values and
must be rejected loudly if someone later tries to train on them.  A whole
seeded vectorized rollout must not depend on whether the policy and value
nets run the graph-free ``Sequential.infer`` loop or the autograd forward.
"""

import numpy as np
import pytest

from repro.core import (
    ChironAgent,
    ChironConfig,
    VectorizedEdgeLearningEnv,
    build_environment,
)
from repro.core.mechanism import Observation
from repro.experiments.runner import run_episodes_vectorized
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


class TestBatchedRespond:
    def test_shared_population_detected_for_spawned_replicas(self):
        venv = VectorizedEdgeLearningEnv.from_env(make_env(), 4)
        assert venv._shared_population is venv.envs[0].population

    def test_single_replica_stays_on_scalar_path(self):
        venv = VectorizedEdgeLearningEnv.from_env(make_env(), 1)
        assert venv._shared_population is None

    def test_batched_step_bit_identical_to_per_replica_respond(self):
        # Same replicas, same prices: one venv answers the fleet with the
        # (M, n) batched call, the twin is forced onto the per-replica
        # path.  Every output row and every replica's internal state must
        # match bitwise over a full multi-round run.
        batched = VectorizedEdgeLearningEnv.from_env(make_env(), 4)
        singles = VectorizedEdgeLearningEnv.from_env(make_env(), 4)
        singles._shared_population = None
        assert batched._shared_population is not None

        batched.reset()
        singles.reset()
        rng = np.random.default_rng(21)
        floors = batched.envs[0].price_floors
        caps = batched.envs[0].price_caps
        active = [True] * 4
        for _ in range(12):
            prices = floors + rng.random((4, len(floors))) * (caps - floors)
            obs_b, rew_b, term_b, trunc_b, infos_b = batched.step(prices, active=active)
            obs_s, rew_s, term_s, trunc_s, infos_s = singles.step(prices, active=active)
            np.testing.assert_array_equal(obs_b, obs_s)
            np.testing.assert_array_equal(rew_b, rew_s)
            np.testing.assert_array_equal(term_b, term_s)
            np.testing.assert_array_equal(trunc_b, trunc_s)
            for info_b, info_s in zip(infos_b, infos_s):
                assert (info_b is None) == (info_s is None)
                if info_b is None:
                    continue
                sr_b = info_b["step_result"]
                sr_s = info_s["step_result"]
                assert sr_b.participants == sr_s.participants
                np.testing.assert_array_equal(sr_b.payments, sr_s.payments)
                np.testing.assert_array_equal(sr_b.zetas, sr_s.zetas)
                np.testing.assert_array_equal(sr_b.times, sr_s.times)
                assert sr_b.remaining_budget == sr_s.remaining_budget
            active = [
                a and not (t or tr)
                for a, t, tr in zip(active, term_b, trunc_b)
            ]
            if not any(active):
                break

    def test_copy_obs_false_returns_internal_buffer(self):
        venv = VectorizedEdgeLearningEnv.from_env(make_env(), 2)
        venv.reset()
        prices = np.tile(venv.envs[0].price_floors, (2, 1))
        obs, *_ = venv.step(prices, copy_obs=False)
        assert obs is venv._last_obs
        obs_copied, *_ = venv.step(prices)
        assert obs_copied is not venv._last_obs


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


def seeded_rollout(num_envs=4, episodes=8):
    """Per-episode results of one seeded eval-mode vectorized rollout.

    deterministic_eval=False keeps the stochastic acting path (normalizer
    updates + Gaussian sampling) under eval mode.
    """
    env = build_environment(seed=0, n_nodes=5, budget=100.0).env
    agent = ChironAgent(
        env,
        ChironConfig(deterministic_eval=False),
        rng=np.random.default_rng(42),
    )
    agent.eval_mode()
    venv = VectorizedEdgeLearningEnv.from_env(env, num_envs)
    return [
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
        for r, _ in run_episodes_vectorized(venv, agent, episodes, num_envs)
    ]


class TestFusedRolloutIdentity:
    def test_fused_rerun_and_autograd_forward_agree(self, monkeypatch):
        kernel = seeded_rollout()
        rerun = seeded_rollout()
        calls = []

        def autograd_forward(net, x):
            calls.append(1)
            return reference_forward(net, x)

        # Every policy and value forward now builds the autograd forward
        # instead of running the Sequential.infer loop.
        monkeypatch.setattr(Sequential, "infer", autograd_forward)
        autograd = seeded_rollout()
        assert calls
        assert len(kernel) == 8
        assert kernel == rerun
        assert kernel == autograd
