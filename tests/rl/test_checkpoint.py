"""Agent checkpointing."""

import pickle

import numpy as np
import pytest

from repro.rl import PPOAgent, PPOConfig, load_many, load_ppo, save_many, save_ppo


def trained_agent(seed=0, obs_dim=6, act_dim=2):
    agent = PPOAgent(
        obs_dim, act_dim, config=PPOConfig(actor_lr=1e-3, critic_lr=1e-3), rng=seed
    )
    rng = np.random.default_rng(seed)
    for i in range(16):
        obs = rng.normal(size=obs_dim)
        a, lp, v = agent.act(obs)
        agent.store(obs, a, rng.normal(), v, lp, done=(i % 8 == 7))
    agent.update()
    return agent


class TestSingleAgent:
    def test_roundtrip(self, tmp_path):
        agent = trained_agent(0)
        path = save_ppo(agent, tmp_path / "agent.npz")
        clone = PPOAgent(6, 2, config=agent.config, rng=99)
        load_ppo(clone, path)
        np.testing.assert_allclose(
            clone.policy.flat_parameters(), agent.policy.flat_parameters()
        )
        np.testing.assert_allclose(
            clone.value_net.flat_parameters(), agent.value_net.flat_parameters()
        )
        assert clone.episodes_seen == agent.episodes_seen
        assert clone.actor_opt.lr == agent.actor_opt.lr
        np.testing.assert_allclose(clone.obs_stat.mean, agent.obs_stat.mean)

    def test_restored_policy_acts_identically(self, tmp_path):
        agent = trained_agent(1)
        path = save_ppo(agent, tmp_path / "agent.npz")
        clone = PPOAgent(6, 2, config=agent.config, rng=5)
        load_ppo(clone, path)
        obs = np.random.default_rng(3).normal(size=6)
        a1, _, v1 = agent.act(obs, deterministic=True)
        a2, _, v2 = clone.act(obs, deterministic=True)
        np.testing.assert_allclose(a1, a2)
        assert v1 == pytest.approx(v2)

    def test_suffix_appended(self, tmp_path):
        agent = trained_agent(0)
        path = save_ppo(agent, tmp_path / "bare")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_architecture_mismatch(self, tmp_path):
        agent = trained_agent(0)
        path = save_ppo(agent, tmp_path / "agent.npz")
        wrong = PPOAgent(8, 2, config=agent.config, rng=0)
        with pytest.raises(ValueError):
            load_ppo(wrong, path)


class TestManyAgents:
    def test_roundtrip(self, tmp_path):
        agents = {"a": trained_agent(0), "b": trained_agent(1, obs_dim=4, act_dim=3)}
        path = save_many(agents, tmp_path / "pair.npz")
        clones = {
            "a": PPOAgent(6, 2, config=agents["a"].config, rng=7),
            "b": PPOAgent(4, 3, config=agents["b"].config, rng=8),
        }
        load_many(clones, path)
        for name in agents:
            np.testing.assert_allclose(
                clones[name].policy.flat_parameters(),
                agents[name].policy.flat_parameters(),
            )

    def test_missing_prefix(self, tmp_path):
        path = save_many({"a": trained_agent(0)}, tmp_path / "a.npz")
        with pytest.raises(KeyError):
            load_many({"zzz": PPOAgent(6, 2, rng=0)}, path)


class TestBitwiseResume:
    """A mid-training round trip must resume the run bit for bit.

    Full fidelity requires more than parameters: Adam moments and step
    counts, LR-scheduler ticks, and the exact positions of the policy
    sampling and minibatch shuffle streams.  These tests drive the saved
    agent and its restored clone through identical post-checkpoint work
    and demand exact equality — any drift means some state escaped the
    checkpoint.
    """

    def _roundtrip_clone(self, agent, tmp_path):
        path = save_ppo(agent, tmp_path / "mid.npz")
        clone = PPOAgent(6, 2, config=agent.config, rng=4242)
        load_ppo(clone, path)
        return clone

    def test_stochastic_act_stream_bitwise_identical(self, tmp_path):
        agent = trained_agent(2)
        clone = self._roundtrip_clone(agent, tmp_path)
        obs_stream = np.random.default_rng(7).normal(size=(12, 6))
        for obs in obs_stream:
            a1, lp1, v1 = agent.act(obs)
            a2, lp2, v2 = clone.act(obs)
            np.testing.assert_array_equal(a1, a2)
            assert lp1 == lp2
            assert v1 == v2

    def test_update_bitwise_identical(self, tmp_path):
        agent = trained_agent(3)
        clone = self._roundtrip_clone(agent, tmp_path)
        # Feed both agents the same post-checkpoint episode.  Actions are
        # sampled (stochastic) — identical only if the policy RNG stream
        # was restored at its exact position.
        reward_rng = np.random.default_rng(17)
        obs_stream = np.random.default_rng(23).normal(size=(10, 6))
        rewards = reward_rng.normal(size=10)
        for which in (agent, clone):
            for i, obs in enumerate(obs_stream):
                a, lp, v = which.act(obs)
                which.store(obs, a, float(rewards[i]), v, lp, done=(i == 9))
        stats_a = agent.update()
        stats_b = clone.update()
        np.testing.assert_array_equal(
            agent.policy.flat_parameters(), clone.policy.flat_parameters()
        )
        np.testing.assert_array_equal(
            agent.value_net.flat_parameters(), clone.value_net.flat_parameters()
        )
        assert stats_a == stats_b
        assert agent.actor_opt.lr == clone.actor_opt.lr
        assert agent.actor_opt.step_count == clone.actor_opt.step_count
        assert agent._actor_sched.ticks == clone._actor_sched.ticks

    def test_optimizer_moments_round_trip_exactly(self, tmp_path):
        agent = trained_agent(4)
        clone = self._roundtrip_clone(agent, tmp_path)
        for name in ("actor_opt", "critic_opt"):
            orig = getattr(agent, name).flat_state()
            restored = getattr(clone, name).flat_state()
            np.testing.assert_array_equal(orig["m"], restored["m"])
            np.testing.assert_array_equal(orig["v"], restored["v"])
            assert orig["step_count"][0] == restored["step_count"][0]

    def test_legacy_archive_without_new_keys_still_loads(self, tmp_path):
        from repro.rl.checkpoint import load_ppo_state, ppo_state_dict

        agent = trained_agent(5)
        state = ppo_state_dict(agent)
        legacy = {
            k: v
            for k, v in state.items()
            if "opt_" not in k and "sched" not in k and "rng" not in k
        }
        clone = PPOAgent(6, 2, config=agent.config, rng=31)
        load_ppo_state(clone, legacy)
        np.testing.assert_array_equal(
            clone.policy.flat_parameters(), agent.policy.flat_parameters()
        )
        # Ancillary state stays at its fresh defaults.
        assert clone.actor_opt.step_count == 0


class TestChironBitwiseResume:
    """Hierarchical save/load: both sub-agents resume bit for bit."""

    def test_exterior_and_inner_resume_bitwise(self, tmp_path, surrogate_env):
        from repro.core.chiron import ChironAgent, ChironConfig
        from repro.core.mechanism import Observation
        from repro.experiments.runner import run_episode, train_mechanism

        env = surrogate_env.env
        agent = ChironAgent(env, ChironConfig(), rng=np.random.default_rng(5))
        train_mechanism(env, agent, episodes=2)
        path = agent.save(tmp_path / "chiron_mid.npz")

        fresh = ChironAgent(env, ChironConfig(), rng=np.random.default_rng(99))
        fresh.load(path)

        # Identical twin environments: copies of one environment, run on
        # the same episode seed -> same streams.
        env_a = pickle.loads(pickle.dumps(env))
        env_b = pickle.loads(pickle.dumps(env))
        result_a, diag_a = run_episode(env_a, agent, seed=123)
        result_b, diag_b = run_episode(env_b, fresh, seed=123)

        assert result_a.reward_exterior == result_b.reward_exterior
        assert result_a.reward_inner == result_b.reward_inner
        assert result_a.final_accuracy == result_b.final_accuracy
        assert result_a.rounds == result_b.rounds
        assert diag_a == diag_b
        for name in ("exterior", "inner"):
            np.testing.assert_array_equal(
                getattr(agent, name).policy.flat_parameters(),
                getattr(fresh, name).policy.flat_parameters(),
            )
            np.testing.assert_array_equal(
                getattr(agent, name).value_net.flat_parameters(),
                getattr(fresh, name).value_net.flat_parameters(),
            )

        # And the *next* stochastic action agrees too (RNG positions).
        state, _ = env_a.reset(seed=7)
        obs = Observation(state, env_a.ledger.remaining, env_a.round_index)
        np.testing.assert_array_equal(
            agent.propose_prices(obs), fresh.propose_prices(obs)
        )


class TestChironCheckpoint:
    def test_save_load_restores_policy(self, tmp_path, surrogate_env):
        from repro.experiments.mechanisms import make_mechanism
        from repro.experiments.runner import evaluate_mechanism, train_mechanism

        env = surrogate_env.env
        agent = make_mechanism("chiron", env, rng=1, tier="quick")
        train_mechanism(env, agent, episodes=10)
        path = agent.save(tmp_path / "chiron.npz")

        fresh = make_mechanism("chiron", env, rng=2, tier="quick")
        fresh.load(path)
        original_eval = evaluate_mechanism(env, agent, 2)
        restored_eval = evaluate_mechanism(env, fresh, 2)
        for a, b in zip(original_eval, restored_eval):
            assert a.final_accuracy == pytest.approx(b.final_accuracy, abs=0.02)
            assert a.rounds == b.rounds


class TestBufferRoundTrip:
    """Pending rollout transitions survive a checkpoint (PR 6).

    With ``min_update_batch`` larger than one episode, transitions carry
    across episode boundaries — dropping them on resume would silently
    change the next update.
    """

    def test_flat_state_round_trips_pending_transitions(self):
        agent = trained_agent(2)
        rng = np.random.default_rng(7)
        for i in range(5):  # leave un-consumed transitions in the buffer
            obs = rng.normal(size=6)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, rng.normal(), v, lp, done=(i == 4))
        state = agent.buffer.columns()

        clone = trained_agent(2)
        clone.buffer.clear()
        clone.buffer.extend(state)
        assert len(clone.buffer) == len(agent.buffer)
        mine, theirs = agent.buffer.columns(), clone.buffer.columns()
        for key in mine:
            np.testing.assert_array_equal(mine[key], theirs[key])

    def test_empty_buffer_round_trips(self):
        agent = trained_agent(3)
        assert len(agent.buffer) == 0  # update() consumed it
        state = agent.buffer.columns()
        clone = trained_agent(3)
        clone.buffer.extend(state)
        assert len(clone.buffer) == 0

    def test_save_ppo_preserves_buffer_through_archive(self, tmp_path):
        agent = trained_agent(4)
        rng = np.random.default_rng(11)
        for i in range(3):
            obs = rng.normal(size=6)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, rng.normal(), v, lp, done=False)
        path = save_ppo(agent, tmp_path / "agent.npz")
        clone = PPOAgent(6, 2, config=agent.config, rng=99)
        load_ppo(clone, path)
        assert len(clone.buffer) == 3
        batch_a = agent.buffer.compute(last_value=0.5)
        batch_b = clone.buffer.compute(last_value=0.5)
        np.testing.assert_array_equal(batch_a.obs, batch_b.obs)
        np.testing.assert_array_equal(batch_a.advantages, batch_b.advantages)

    def test_grown_buffer_round_trips_through_archive(self, tmp_path):
        # More rows than the buffer's first allocation, so the archive
        # carries storage that was regrown mid-collection.
        agent = trained_agent(6)
        rng = np.random.default_rng(13)
        for i in range(150):
            obs = rng.normal(size=6)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, rng.normal(), v, lp, done=(i % 40 == 39))
        path = save_ppo(agent, tmp_path / "agent.npz")
        clone = PPOAgent(6, 2, config=agent.config, rng=99)
        load_ppo(clone, path)
        assert len(clone.buffer) == 150
        mine, theirs = agent.buffer.columns(), clone.buffer.columns()
        for key in mine:
            assert mine[key].dtype == theirs[key].dtype
            np.testing.assert_array_equal(mine[key], theirs[key])
        batch_a = agent.buffer.compute(last_value=0.5)
        batch_b = clone.buffer.compute(last_value=0.5)
        np.testing.assert_array_equal(batch_a.advantages, batch_b.advantages)
        np.testing.assert_array_equal(batch_a.returns, batch_b.returns)
