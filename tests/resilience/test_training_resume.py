"""Training checkpoints: atomic store semantics + bitwise resume."""

from __future__ import annotations

import json
import signal

import numpy as np
import pytest

from repro.core.builder import build_environment
from repro.experiments.mechanisms import make_mechanism
from repro.experiments.results import EpisodeResult, TrainingHistory
from repro.experiments.runner import train_mechanism
from repro.resilience.signals import ShutdownGuard
from repro.resilience.training import (
    latest_checkpoint,
    list_checkpoints,
    load_training_checkpoint,
    prune_checkpoints,
    save_training_checkpoint,
)

pytestmark = pytest.mark.resilience


class DummyMechanism:
    """Minimal save/load surface for exercising the checkpoint store."""

    name = "dummy"

    def __init__(self):
        self.weights = [1.0, 2.0]
        self.loaded_from = None

    def save(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.weights, handle)

    def load(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            self.weights = json.load(handle)
        self.loaded_from = str(path)


class DummyEnv:
    def __init__(self):
        self.restored = None

    def rng_checkpoint(self):
        return {"seed_base": 7, "episode": 3}

    def restore_rng_checkpoint(self, state):
        self.restored = state


def history_with(n):
    history = TrainingHistory(mechanism="dummy")
    for i in range(n):
        history.append(
            EpisodeResult(
                rounds=5,
                final_accuracy=0.5 + 0.01 * i,
                mean_time_efficiency=0.8,
                total_learning_time=10.0,
                budget_spent=1.0,
                reward_exterior=float(i),
                reward_inner=-1.0,
            ),
            {"step": i},
        )
    return history


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        mechanism, env = DummyMechanism(), DummyEnv()
        mechanism.weights = [3.5, -1.25]
        path = save_training_checkpoint(
            tmp_path, mechanism, env, history_with(4), episodes_done=4
        )
        assert path.name == "ep00000004"

        fresh_mechanism, fresh_env = DummyMechanism(), DummyEnv()
        episodes_done, history = load_training_checkpoint(
            path, fresh_mechanism, fresh_env
        )
        assert episodes_done == 4
        assert fresh_mechanism.weights == [3.5, -1.25]
        assert fresh_env.restored == {"seed_base": 7, "episode": 3}
        assert len(history) == 4
        assert history.episodes[2].reward_exterior == 2.0
        assert history.diagnostics[2] == {"step": 2}

    def test_latest_follows_pointer_and_survives_missing_pointer(
        self, tmp_path
    ):
        mechanism, env = DummyMechanism(), DummyEnv()
        for n in (2, 4, 6):
            save_training_checkpoint(
                tmp_path, mechanism, env, history_with(n), episodes_done=n
            )
        assert latest_checkpoint(tmp_path).name == "ep00000006"
        # A crash after the rename but before the pointer moved: the
        # fallback scan must still find the newest complete directory.
        (tmp_path / "LATEST").unlink()
        assert latest_checkpoint(tmp_path).name == "ep00000006"
        assert latest_checkpoint(tmp_path / "absent") is None

    def test_incomplete_tmp_dir_is_invisible(self, tmp_path):
        mechanism, env = DummyMechanism(), DummyEnv()
        save_training_checkpoint(
            tmp_path, mechanism, env, history_with(2), episodes_done=2
        )
        # A half-written checkpoint (crash mid-save) must never be listed.
        (tmp_path / ".tmp-ep00000004").mkdir()
        (tmp_path / "ep00000006").mkdir()  # renamed dir missing state.json
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == ["ep00000002"]
        assert latest_checkpoint(tmp_path).name == "ep00000002"

    def test_prune_keeps_newest(self, tmp_path):
        mechanism, env = DummyMechanism(), DummyEnv()
        for n in (1, 2, 3, 4):
            save_training_checkpoint(
                tmp_path, mechanism, env, history_with(n), episodes_done=n
            )
        removed = prune_checkpoints(tmp_path, keep=2)
        assert [p.name for p in removed] == ["ep00000001", "ep00000002"]
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == ["ep00000003", "ep00000004"]
        with pytest.raises(ValueError):
            prune_checkpoints(tmp_path, keep=0)

    def test_mechanism_mismatch_refused(self, tmp_path):
        mechanism, env = DummyMechanism(), DummyEnv()
        path = save_training_checkpoint(
            tmp_path, mechanism, env, history_with(1), episodes_done=1
        )
        class Other(DummyMechanism):
            name = "other"
        with pytest.raises(ValueError, match="written by mechanism"):
            load_training_checkpoint(path, Other(), DummyEnv())


class TestTrainMechanismValidation:
    def _env_mech(self, seed=0):
        built = build_environment(
            task_name="mnist",
            n_nodes=3,
            seed=seed,
            accuracy_mode="surrogate",
            max_rounds=8,
        )
        env = built.env if hasattr(built, "env") else built
        mechanism = make_mechanism(
            "chiron", env, rng=np.random.default_rng(seed), tier="quick"
        )
        return env, mechanism

    def test_checkpoint_params_must_come_together(self, tmp_path):
        env, mechanism = self._env_mech()
        with pytest.raises(ValueError, match="set together"):
            train_mechanism(env, mechanism, episodes=1, checkpoint_every=1)
        with pytest.raises(ValueError, match="set together"):
            train_mechanism(
                env, mechanism, episodes=1, checkpoint_dir=str(tmp_path)
            )

    def test_mechanism_without_save_rejected(self, tmp_path):
        built = build_environment(
            task_name="mnist",
            n_nodes=3,
            seed=0,
            accuracy_mode="surrogate",
            max_rounds=8,
        )
        env = built.env if hasattr(built, "env") else built
        greedy = make_mechanism(
            "greedy", env, rng=np.random.default_rng(0), tier="quick"
        )
        with pytest.raises(TypeError, match="no save/load"):
            train_mechanism(
                env,
                greedy,
                episodes=1,
                checkpoint_every=1,
                checkpoint_dir=str(tmp_path),
            )


class TestBitwiseResume:
    """The headline guarantee: kill -9 + resume == never killed."""

    def _env_mech(self, seed=0):
        built = build_environment(
            task_name="mnist",
            n_nodes=3,
            seed=seed,
            accuracy_mode="surrogate",
            max_rounds=8,
        )
        env = built.env if hasattr(built, "env") else built
        mechanism = make_mechanism(
            "chiron", env, rng=np.random.default_rng(seed), tier="quick"
        )
        return env, mechanism

    def test_resume_is_bitwise_identical(self, tmp_path):
        import dataclasses

        env, mechanism = self._env_mech()
        golden = train_mechanism(env, mechanism, episodes=3)

        env1, mech1 = self._env_mech()
        train_mechanism(
            env1,
            mech1,
            episodes=2,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        )
        # Fresh objects stand in for the post-kill process.
        env2, mech2 = self._env_mech()
        resumed = train_mechanism(
            env2,
            mech2,
            episodes=3,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        )
        golden_rows = [dataclasses.asdict(e) for e in golden.episodes]
        resumed_rows = [dataclasses.asdict(e) for e in resumed.episodes]
        assert resumed_rows == golden_rows

    def test_resume_past_target_returns_immediately(self, tmp_path):
        env, mechanism = self._env_mech()
        train_mechanism(
            env,
            mechanism,
            episodes=2,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        )
        env2, mech2 = self._env_mech()
        history = train_mechanism(
            env2,
            mech2,
            episodes=2,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        )
        assert len(history) == 2

    def test_guard_drain_checkpoints_partial_run(self, tmp_path):
        env, mechanism = self._env_mech()
        guard = ShutdownGuard()

        original_step = env.step
        calls = {"n": 0}

        def stepping(*args, **kwargs):
            calls["n"] += 1
            # Arm the drain mid-episode: the episode must still finish
            # (cooperative boundaries only) and then checkpoint.
            if calls["n"] == 3:
                guard.request(signal.SIGTERM)
            return original_step(*args, **kwargs)

        env.step = stepping
        history = train_mechanism(
            env,
            mechanism,
            episodes=5,
            checkpoint_every=10,  # never reached; drain writes the final one
            checkpoint_dir=str(tmp_path),
            guard=guard,
        )
        assert len(history) == 1  # drained at the first episode boundary
        newest = latest_checkpoint(tmp_path)
        assert newest is not None and newest.name == "ep00000001"
