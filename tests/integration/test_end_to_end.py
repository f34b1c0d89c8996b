"""Integration: the full stack wired together."""

import contextlib

import numpy as np
import pytest

from repro.baselines import RandomMechanism
from repro.core import ChironAgent, ChironConfig, build_environment
from repro.experiments.mechanisms import make_mechanism
from repro.experiments.results import EvaluationSummary
from repro.experiments.runner import evaluate_mechanism, run_episode, train_mechanism
from repro.rl import PPOConfig


def step_result(env, prices):
    """Step through the Gymnasium-style API, returning the StepResult."""
    *_, info = env.step(prices)
    return info["step_result"]



class TestRealModeEndToEnd:
    def test_chiron_episode_on_real_training(self):
        """Chiron drives actual numpy-CNN federated training."""
        build = build_environment(
            task_name="mnist",
            n_nodes=2,
            budget=3.0,
            accuracy_mode="real",
            seed=0,
            samples_per_node=15,
            test_size=20,
            max_rounds=6,
        )
        ppo = PPOConfig(actor_lr=1e-3, critic_lr=1e-3, hidden=(16, 16))
        agent = ChironAgent(build.env, ChironConfig(exterior=ppo, inner=ppo), rng=0)
        episode, _ = run_episode(build.env, agent)
        assert episode.rounds >= 1
        assert 0.0 < episode.final_accuracy <= 1.0
        assert episode.budget_spent <= 3.0 + 1e-9

    def test_real_accuracy_improves_with_rounds(self):
        build = build_environment(
            task_name="mnist",
            n_nodes=2,
            budget=50.0,
            accuracy_mode="real",
            seed=1,
            samples_per_node=40,
            test_size=60,
            max_rounds=3,
        )
        env = build.env
        env.reset()
        initial = env.accuracy
        prices = np.sqrt(env.price_floors * env.price_caps)
        while not env.done:
            result = step_result(env, prices)
        assert result.accuracy > initial + 0.3

    def test_cifar10_lenet5_round(self, monkeypatch):
        """One real LeNet-5 round; its evaluation crosses a chunk boundary."""
        from repro.fl import metrics
        from repro.nn import LeNet5, models

        build = build_environment(
            task_name="cifar10",
            n_nodes=2,
            budget=50.0,
            accuracy_mode="real",
            seed=0,
            samples_per_node=8,
            test_size=60,
            max_rounds=1,
        )
        env = build.env
        env.reset()
        result = step_result(env, np.sqrt(env.price_floors * env.price_caps))
        assert env.done and result.participants == [0, 1]
        server = build.learning.session.server
        assert isinstance(server.model, LeNet5)
        assert len(server.test_set) > models._FEATURE_BYTES // (8 * 6 * 28 * 28)
        record = build.learning.session.history[-1]
        assert result.accuracy == record.accuracy
        # Recording a graph makes every layer run on the whole batch.
        monkeypatch.setattr(metrics, "no_grad", contextlib.nullcontext)
        graph = server.evaluate()
        assert record.accuracy.hex() == graph.accuracy.hex()
        assert record.loss.hex() == graph.loss.hex()


class TestSurrogateFidelity:
    def test_real_and_surrogate_agree(self):
        """The calibrated curve tracks actual training within tolerance."""
        real_build = build_environment(
            task_name="mnist",
            n_nodes=5,
            budget=1e9,
            accuracy_mode="real",
            seed=0,
            samples_per_node=120,
            test_size=300,
        )
        real = real_build.learning
        surrogate = build_environment(
            task_name="mnist", n_nodes=5, budget=1e9, accuracy_mode="surrogate",
            seed=0, samples_per_node=120,
        ).learning

        real.reset()
        surrogate.reset()
        everyone = list(range(5))
        for round_index in range(4):
            a_real = real.step(everyone)
            a_surr = surrogate.step(everyone)
            assert a_surr == pytest.approx(a_real, abs=0.12), (
                f"round {round_index}: surrogate {a_surr:.3f} vs real {a_real:.3f}"
            )


class TestLearningImproves:
    def test_chiron_beats_random_after_training(self):
        build = build_environment(
            task_name="mnist", n_nodes=4, budget=25.0, accuracy_mode="surrogate",
            seed=0, max_rounds=200,
        )
        env = build.env
        chiron = make_mechanism("chiron", env, rng=1, tier="quick")
        train_mechanism(env, chiron, episodes=60)
        chiron_eval = EvaluationSummary.from_episodes(
            "chiron", evaluate_mechanism(env, chiron, episodes=5)
        )
        random_eval = EvaluationSummary.from_episodes(
            "random", evaluate_mechanism(env, RandomMechanism(env, rng=2), episodes=5)
        )
        assert chiron_eval.utility_mean > random_eval.utility_mean

    def test_inner_agent_raises_time_efficiency(self):
        """Deterministic-eval efficiency after training beats random pricing."""
        build = build_environment(
            task_name="mnist", n_nodes=5, budget=40.0, accuracy_mode="surrogate",
            seed=3, max_rounds=200,
        )
        env = build.env
        chiron = make_mechanism("chiron", env, rng=1, tier="quick")
        train_mechanism(env, chiron, episodes=80)
        chiron_eval = EvaluationSummary.from_episodes(
            "chiron", evaluate_mechanism(env, chiron, episodes=3)
        )
        random_eval = EvaluationSummary.from_episodes(
            "random", evaluate_mechanism(env, RandomMechanism(env, rng=5), episodes=5)
        )
        assert chiron_eval.efficiency_mean > random_eval.efficiency_mean


class TestDeterminism:
    def test_identical_seeds_identical_training(self):
        def run():
            build = build_environment(
                task_name="mnist", n_nodes=3, budget=15.0,
                accuracy_mode="surrogate", seed=4, max_rounds=100,
            )
            agent = make_mechanism("chiron", build.env, rng=9, tier="quick")
            history = train_mechanism(build.env, agent, episodes=5)
            return history.reward_curve

        np.testing.assert_allclose(run(), run())
