"""Seeded evaluation: worker-count invariance + seed-derivation bugfix.

``evaluate_mechanism(seed=...)`` changed in two deliberate ways when it
gained ``workers``:

1. per-episode seeds moved from ``SeedSequence(seed).generate_state(n,
   dtype=np.uint32)`` words (collision-prone, no independence guarantee)
   to ``SeedSequence.spawn`` children via
   :func:`repro.utils.rng.spawn_seeds`;
2. each episode now runs on its own snapshot of ``(env, mechanism)``
   instead of sharing mutable state, making episode ``i`` a pure function
   of ``(seed, i)``.

These tests pin the new contract and document the divergence from the
old derivation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_environment
from repro.experiments.mechanisms import make_mechanism
from repro.experiments.runner import (
    evaluate_mechanism,
    run_episode,
    train_mechanism,
)
from repro.utils.rng import spawn_seeds

pytestmark = pytest.mark.parallel


def _env_and_mechanism(name="greedy", seed=0):
    build = build_environment(
        task_name="mnist", n_nodes=4, budget=40.0, seed=seed, max_rounds=25
    )
    mechanism = make_mechanism(
        name, build.env, rng=np.random.default_rng(seed + 1)
    )
    return build.env, mechanism


class TestWorkersInvariance:
    def test_results_identical_for_any_worker_count(self):
        env, mechanism = _env_and_mechanism()
        sequential = evaluate_mechanism(
            env, mechanism, episodes=4, seed=123, workers=1
        )
        pooled = evaluate_mechanism(
            env, mechanism, episodes=4, seed=123, workers=3
        )
        assert sequential == pooled  # EpisodeResult is a frozen dataclass

    def test_caller_state_untouched_by_seeded_eval(self):
        # Seeded evaluation snapshots (env, mechanism); afterwards the
        # caller's env must behave exactly as if no evaluation happened.
        env_a, mech_a = _env_and_mechanism()
        env_b, mech_b = _env_and_mechanism()
        evaluate_mechanism(env_a, mech_a, episodes=2, seed=9)
        result_a, _ = run_episode(env_a, mech_a, seed=77)
        result_b, _ = run_episode(env_b, mech_b, seed=77)
        assert result_a == result_b

    def test_episode_i_independent_of_episode_count(self):
        # Pure function of (seed, i): asking for more episodes must not
        # change the earlier ones (spawn children are index-stable).
        env, mechanism = _env_and_mechanism()
        short = evaluate_mechanism(env, mechanism, episodes=2, seed=5)
        long = evaluate_mechanism(env, mechanism, episodes=5, seed=5)
        assert long[:2] == short

    def test_reproducible_and_distinct(self):
        env, mechanism = _env_and_mechanism(name="random")
        a = evaluate_mechanism(env, mechanism, episodes=3, seed=11)
        b = evaluate_mechanism(env, mechanism, episodes=3, seed=11)
        assert a == b
        assert len({e.final_accuracy for e in a}) > 1


class TestFailingEpisode:
    def test_in_process_failure_raises_its_own_exception_at_once(
        self, monkeypatch
    ):
        # A seeded episode fails the same way on every attempt: at
        # workers=1 the episode's own exception propagates on its first
        # attempt, and no later episode runs.
        from repro.experiments import runner

        env, mechanism = _env_and_mechanism()
        bad_seed = spawn_seeds(3, 4)[1]
        calls = []
        real_run_episode = runner.run_episode

        def run_episode_failing(env, mechanism, seed=None):
            calls.append(seed)
            if seed == bad_seed:
                raise ZeroDivisionError("boom")
            return real_run_episode(env, mechanism, seed=seed)

        monkeypatch.setattr(runner, "run_episode", run_episode_failing)
        with pytest.raises(ZeroDivisionError, match="boom"):
            evaluate_mechanism(env, mechanism, episodes=4, seed=3)
        assert len(calls) == 2


class TestTrainedInProcess:
    def test_seeded_eval_after_training(self):
        # Training acts through the policy and value nets, then seeded
        # evaluation snapshots (env, mechanism) for every episode: the
        # trained mechanism must pickle.
        env, chiron = _env_and_mechanism(name="chiron")
        train_mechanism(env, chiron, episodes=2)
        results = evaluate_mechanism(env, chiron, 2, seed=0)
        assert len(results) == 2
        assert evaluate_mechanism(env, chiron, 2, seed=0) == results


class TestSeedDerivationRegression:
    def test_new_derivation_is_spawn_based_not_uint32_words(self):
        # Documents the bugfix: the old uint32 words are NOT what episodes
        # receive anymore.  If this test ever fails because the two lists
        # match, the collision-prone derivation has been reintroduced.
        legacy = [
            int(s)
            for s in np.random.SeedSequence(42).generate_state(
                5, dtype=np.uint32
            )
        ]
        assert spawn_seeds(42, 5) != legacy

    def test_evaluate_uses_spawn_seeds(self):
        # An episode run manually with the spawn-derived seed must equal
        # the corresponding evaluate_mechanism episode.
        env, mechanism = _env_and_mechanism()
        results = evaluate_mechanism(env, mechanism, episodes=3, seed=21)
        env2, mechanism2 = _env_and_mechanism()
        if hasattr(mechanism2, "eval_mode"):
            mechanism2.eval_mode()
        seeds = spawn_seeds(21, 3)
        manual, _ = run_episode(env2, mechanism2, seed=seeds[1])
        assert results[1] == manual


class TestGuards:
    def test_unseeded_parallel_eval_rejected(self):
        env, mechanism = _env_and_mechanism()
        with pytest.raises(ValueError, match="seed"):
            evaluate_mechanism(env, mechanism, episodes=2, workers=2)

    def test_unseeded_sequential_path_preserved(self):
        # seed=None keeps the legacy shared-state behaviour (episodes
        # continue the env's own stream) — checkpoint tests rely on it.
        env, mechanism = _env_and_mechanism(name="random")
        results = evaluate_mechanism(env, mechanism, episodes=2)
        assert len(results) == 2

    def test_invalid_workers_rejected(self):
        env, mechanism = _env_and_mechanism()
        with pytest.raises(ValueError):
            evaluate_mechanism(env, mechanism, episodes=1, seed=0, workers=0)
