"""Experiment runner and result records."""

import numpy as np
import pytest

from repro.baselines import FixedPriceMechanism, RandomMechanism
from repro.experiments.mechanisms import make_mechanism
from repro.experiments.results import EpisodeResult, EvaluationSummary, TrainingHistory
from repro.experiments.runner import evaluate_mechanism, run_episode, train_mechanism


@pytest.fixture
def env(surrogate_env):
    return surrogate_env.env


def episode(reward=10.0, rounds=5, acc=0.9, eff=0.8, time=100.0):
    return EpisodeResult(
        rounds=rounds,
        final_accuracy=acc,
        mean_time_efficiency=eff,
        total_learning_time=time,
        budget_spent=19.0,
        reward_exterior=reward,
        reward_inner=-5.0,
    )


class TestRunEpisode:
    def test_accounting_matches_env(self, env):
        result, _diag = run_episode(env, FixedPriceMechanism(env, markup=2.0))
        assert result.rounds >= 1
        assert result.budget_spent <= env.config.budget + 1e-9
        assert result.budget_spent == pytest.approx(env.ledger.spent)
        assert result.final_accuracy == pytest.approx(env.accuracy)
        assert 0 < result.mean_time_efficiency <= 1

    def test_reward_sums(self, env):
        result, _ = run_episode(env, FixedPriceMechanism(env, markup=2.0))
        # The telescoped exterior reward ≈ λ(A_K − A_0) − Σ T̃.
        cfg = env.config.rewards
        expected = (
            cfg.accuracy_weight * (result.final_accuracy - env.learning.curve.a_init)
            - result.total_learning_time / cfg.resolved_time_scale()
        )
        assert result.reward_exterior == pytest.approx(expected, abs=25.0)

    def test_multiple_episodes_reset_properly(self, env):
        mech = FixedPriceMechanism(env, markup=2.0)
        r1, _ = run_episode(env, mech)
        r2, _ = run_episode(env, mech)
        assert abs(r1.rounds - r2.rounds) <= 1  # same static policy


class TestTrainEvaluate:
    def test_train_returns_history(self, env):
        history = train_mechanism(env, RandomMechanism(env, rng=0), episodes=4)
        assert len(history) == 4
        assert history.reward_curve.shape == (4,)

    def test_evaluate_returns_episodes(self, env):
        results = evaluate_mechanism(env, FixedPriceMechanism(env, markup=2.0), episodes=3)
        assert len(results) == 3

    def test_invalid_episode_count(self, env):
        with pytest.raises(ValueError):
            train_mechanism(env, RandomMechanism(env, rng=0), episodes=0)

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("name", ["chiron", "drl_single", "greedy", "bara"])
    def test_evaluate_restores_callers_mode(self, env, name, training):
        mechanism = make_mechanism(name, env, rng=0, tier="quick")
        if training:
            mechanism.train_mode()
        else:
            mechanism.eval_mode()
        evaluate_mechanism(env, mechanism, episodes=1)
        assert mechanism.training is training


class TestTrainingHistory:
    def test_curves(self):
        hist = TrainingHistory("m")
        for r in (1.0, 2.0, 3.0):
            hist.append(episode(reward=r), {})
        np.testing.assert_allclose(hist.reward_curve, [1, 2, 3])
        np.testing.assert_allclose(hist.rounds_curve, [5, 5, 5])

    def test_smoothed_length_preserved(self):
        hist = TrainingHistory("m")
        for r in range(20):
            hist.append(episode(reward=float(r)), {})
        smooth = hist.smoothed_rewards(5)
        assert smooth.shape == (20,)
        # Trailing average of an increasing series is increasing.
        assert np.all(np.diff(smooth) >= 0)

    def test_smoothed_empty(self):
        assert TrainingHistory("m").smoothed_rewards().size == 0

    def test_smoothed_window_larger_than_data(self):
        hist = TrainingHistory("m")
        hist.append(episode(reward=4.0), {})
        np.testing.assert_allclose(hist.smoothed_rewards(100), [4.0])


class TestEvaluationSummary:
    def test_statistics(self):
        episodes = [episode(acc=0.8), episode(acc=0.9)]
        summary = EvaluationSummary.from_episodes("m", episodes)
        assert summary.accuracy_mean == pytest.approx(0.85)
        assert summary.accuracy_std == pytest.approx(0.05)
        assert summary.n_episodes == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EvaluationSummary.from_episodes("m", [])

    def test_server_utility_alias(self):
        assert episode(reward=7.0).server_utility == 7.0


class TestSeededRunner:
    def test_run_episode_seed_reproduces_exactly(self, env):
        mech = FixedPriceMechanism(env, markup=2.0)
        a, _ = run_episode(env, mech, seed=41)
        b, _ = run_episode(env, mech, seed=41)
        assert a == b

    def test_run_episode_different_seeds_diverge(self, env):
        mech = FixedPriceMechanism(env, markup=2.0)
        a, _ = run_episode(env, mech, seed=41)
        b, _ = run_episode(env, mech, seed=42)
        assert a != b

    def test_evaluate_seed_reproduces_and_fans_out(self, env):
        mech = FixedPriceMechanism(env, markup=2.0)
        first = evaluate_mechanism(env, mech, episodes=3, seed=8)
        second = evaluate_mechanism(env, mech, episodes=3, seed=8)
        assert first == second
        # Derived per-episode seeds differ, so the episodes are distinct
        # draws rather than three copies of one episode.
        assert len({r.final_accuracy for r in first}) > 1
