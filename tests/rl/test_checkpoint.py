"""Agent checkpointing: the ``.npz`` policy export."""

import json
import pickle

import numpy as np
import pytest

from repro.rl import PPOAgent, PPOConfig, load_many, load_ppo, save_many, save_ppo
from repro.rl.checkpoint import load_ppo_state, ppo_state_dict

#: The keys one agent's archive holds (``obs_*`` when it normalizes).
KEPT_KEYS = {
    "policy",
    "value",
    "episodes_seen",
    "actor_lr",
    "critic_lr",
    "obs_mean",
    "obs_var",
    "obs_count",
}


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

    @pytest.mark.parametrize("writer", ["save_ppo", "save_many"])
    def test_dotted_name_returns_the_path_written(self, tmp_path, writer):
        # np.savez appends ".npz" to "run.v2" as a whole, so the returned
        # path must be run.v2.npz, not run.npz.
        agent = trained_agent(0)
        clone = PPOAgent(6, 2, config=agent.config, rng=99)
        if writer == "save_ppo":
            path = save_ppo(agent, tmp_path / "run.v2")
            load_ppo(clone, path)
        else:
            path = save_many({"a": agent}, tmp_path / "pair.final")
            load_many({"a": clone}, path)
        assert path.name.endswith(".npz") and path.exists()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        np.testing.assert_array_equal(
            clone.policy.flat_parameters(), agent.policy.flat_parameters()
        )

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


def _parent_format(agent):
    """An archive dict as the earlier full-resume format wrote it.

    That format added Adam moments, scheduler ticks, the policy and
    shuffle streams' states (JSON bytes) and the pending buffer rows to
    the kept keys.
    """
    state = ppo_state_dict(agent)
    for name, opt in (("actor", agent.actor_opt), ("critic", agent.critic_opt)):
        for key, value in opt.flat_state().items():
            state[f"{name}_opt_{key}"] = value
        state[f"{name}_sched_ticks"] = np.array([3], dtype=np.int64)
    for name, gen in (
        ("policy_rng", agent.policy._sample_rng),
        ("shuffle_rng", agent._shuffle_rng),
    ):
        blob = json.dumps(gen.bit_generator.state, sort_keys=True).encode()
        state[name] = np.frombuffer(blob, dtype=np.uint8).copy()
    for key, value in agent.buffer.columns().items():
        state[f"buffer_{key}"] = value
    return state


class TestArchiveFormat:
    def test_state_dict_writes_exactly_the_kept_keys(self):
        agent = trained_agent(0)
        state = ppo_state_dict(agent)
        assert set(state) == KEPT_KEYS
        assert set(ppo_state_dict(agent, prefix="x/")) == {
            f"x/{key}" for key in KEPT_KEYS
        }
        # Those keys alone restore the policy into a fresh agent.
        clone = PPOAgent(6, 2, config=agent.config, rng=31)
        load_ppo_state(clone, state)
        np.testing.assert_array_equal(
            clone.policy.flat_parameters(), agent.policy.flat_parameters()
        )

    def test_parent_format_archive_loads(self, tmp_path):
        agent = trained_agent(5)
        rng = np.random.default_rng(11)
        for _ in range(3):  # pending rows, as a mid-training archive held
            obs = rng.normal(size=6)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, rng.normal(), v, lp, done=False)
        path = tmp_path / "parent.npz"
        np.savez(path, **_parent_format(agent))

        clone = PPOAgent(6, 2, config=agent.config, rng=31)
        load_ppo(clone, path)
        np.testing.assert_array_equal(
            clone.policy.flat_parameters(), agent.policy.flat_parameters()
        )
        np.testing.assert_array_equal(
            clone.value_net.flat_parameters(), agent.value_net.flat_parameters()
        )
        np.testing.assert_array_equal(clone.obs_stat.mean, agent.obs_stat.mean)
        assert clone.episodes_seen == agent.episodes_seen
        # The resume keys are in the archive but change nothing.
        with np.load(path) as archive:
            assert {"actor_opt_m", "policy_rng", "buffer_rewards"} <= set(
                archive.files
            )
        assert clone.actor_opt.step_count == 0
        assert len(clone.buffer) == 0

    def test_missing_normalizer_rejected(self):
        agent = trained_agent(0)
        state = {
            k: v for k, v in ppo_state_dict(agent).items()
            if not k.startswith("obs_")
        }
        clone = PPOAgent(6, 2, config=agent.config, rng=1)
        with pytest.raises(KeyError, match="observation statistics"):
            load_ppo_state(clone, state)

    def test_loaded_chiron_prices_identically_in_eval_mode(
        self, tmp_path, surrogate_env
    ):
        from repro.experiments.mechanisms import make_mechanism
        from repro.experiments.runner import train_mechanism

        env = surrogate_env.env
        agent = make_mechanism("chiron", env, rng=1, tier="quick")
        train_mechanism(env, agent, episodes=3)
        fresh = make_mechanism("chiron", env, rng=2, tier="quick")
        fresh.load(agent.save(tmp_path / "chiron.npz"))

        # Twin copies of one environment, each on the same episode seed.
        saved = _episode_prices(agent.eval_mode(), pickle.loads(pickle.dumps(env)))
        loaded = _episode_prices(fresh.eval_mode(), pickle.loads(pickle.dumps(env)))
        assert len(saved) == len(loaded) > 0
        for a, b in zip(saved, loaded):
            np.testing.assert_array_equal(a, b)


def _episode_prices(mechanism, env, seed=123):
    """Every price vector ``mechanism`` proposes over one seeded episode."""
    from repro.core.mechanism import Observation

    state, _ = env.reset(seed=seed)
    obs = Observation(state, env.ledger.remaining, env.round_index)
    mechanism.begin_episode(obs)
    proposed = []
    while not env.done:
        prices = mechanism.propose_prices(obs)
        _, _, _, _, info = env.step(prices)
        result = info["step_result"]
        mechanism.observe(prices, result)
        proposed.append(prices)
        obs = Observation(result.state, result.remaining_budget, result.round_index)
    return proposed
