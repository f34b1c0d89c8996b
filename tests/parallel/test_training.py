"""Seeded round training: determinism, rounds, checkpoints, guards,
failures."""

from __future__ import annotations

import pytest

from repro.core.builder import build_environment
from repro.experiments.mechanisms import make_mechanism
from repro.parallel.training import (
    DEFAULT_SYNC_EVERY,
    _round_boundaries,
    train_parallel,
    training_fingerprint,
    training_rows,
)

pytestmark = pytest.mark.parallel


def _setup(mech="chiron", rng_seed=0, n_nodes=4):
    build = build_environment(
        task_name="mnist",
        n_nodes=n_nodes,
        budget=15.0,
        accuracy_mode="surrogate",
        seed=123,
        max_rounds=25,
    )
    mechanism = make_mechanism(mech, build.env, rng=rng_seed, tier="quick")
    return build.env, mechanism


def _fingerprint(episodes=6, *, seed=11, **kwargs):
    env, mechanism = _setup()
    history = train_parallel(env, mechanism, episodes, seed=seed, **kwargs)
    return training_fingerprint(history)


class TestRoundBoundaries:
    def test_exact_multiple(self):
        assert list(_round_boundaries(8, 4, 0)) == [(0, 4), (4, 8)]

    def test_ragged_tail(self):
        assert list(_round_boundaries(7, 3, 0)) == [(0, 3), (3, 6), (6, 7)]

    def test_resume_offset(self):
        assert list(_round_boundaries(8, 2, 4)) == [(4, 6), (6, 8)]


class TestDeterminism:
    def test_pure_function_of_seed(self):
        assert _fingerprint(seed=11) == _fingerprint(seed=11)
        assert _fingerprint(seed=11) != _fingerprint(seed=12)

    def test_sync_every_is_part_of_the_contract(self):
        # The update cadence shapes the trajectory: a different
        # sync_every is a *different* (still deterministic) run.
        assert _fingerprint(sync_every=2) == _fingerprint(sync_every=2)
        assert _fingerprint(sync_every=2) != _fingerprint(sync_every=6)

    def test_rows_shape(self):
        env, mechanism = _setup()
        history = train_parallel(env, mechanism, 3, seed=5)
        rows = training_rows(history)
        assert [r["episode"] for r in rows] == [0, 1, 2]
        assert all("reward_exterior" in r["result"] for r in rows)
        assert all(
            isinstance(v, float)
            for r in rows
            for v in r["diagnostics"].values()
        )


class TestValidation:
    def test_seed_required(self):
        env, mechanism = _setup()
        with pytest.raises(ValueError, match="seed"):
            train_parallel(env, mechanism, 2, seed=None)

    def test_unknown_mode_rejected(self):
        # There is one collection mode; the engine takes no mode argument.
        env, mechanism = _setup()
        with pytest.raises(TypeError, match="mode"):
            train_parallel(env, mechanism, 2, seed=0, mode="eventually")

    def test_unsupported_mechanism_rejected(self):
        env, mechanism = _setup(mech="greedy")
        with pytest.raises(TypeError, match="run_sweep"):
            train_parallel(env, mechanism, 2, seed=0)

    def test_checkpoint_args_must_pair(self, tmp_path):
        env, mechanism = _setup()
        with pytest.raises(ValueError, match="together"):
            train_parallel(
                env, mechanism, 2, seed=0, checkpoint_every=1
            )
        with pytest.raises(ValueError, match="together"):
            train_parallel(
                env, mechanism, 2, seed=0, checkpoint_dir=str(tmp_path)
            )

    def test_default_sync_every_is_constant(self):
        # The cadence shapes every seeded run's curve; pin it.
        assert DEFAULT_SYNC_EVERY == 4


class TestCheckpointResume:
    def test_interrupted_run_resumes_bitwise(self, tmp_path):
        from repro.resilience.training import (
            checkpoint_digest,
            latest_checkpoint,
        )

        golden_dir = tmp_path / "golden"
        env, mechanism = _setup()
        golden = train_parallel(
            env,
            mechanism,
            8,
            seed=21,
            sync_every=2,
            checkpoint_every=2,
            checkpoint_dir=str(golden_dir),
        )

        # "Crash" after 4 episodes: a fresh process re-runs the same
        # call against the same directory and must continue, not restart.
        part_dir = tmp_path / "part"
        env, mechanism = _setup()
        train_parallel(
            env,
            mechanism,
            4,
            seed=21,
            sync_every=2,
            checkpoint_every=2,
            checkpoint_dir=str(part_dir),
        )
        env, mechanism = _setup()
        resumed = train_parallel(
            env,
            mechanism,
            8,
            seed=21,
            sync_every=2,
            checkpoint_every=2,
            checkpoint_dir=str(part_dir),
        )
        assert training_fingerprint(resumed) == training_fingerprint(golden)
        assert checkpoint_digest(
            latest_checkpoint(part_dir)
        ) == checkpoint_digest(latest_checkpoint(golden_dir))

    def test_completed_run_returns_history_without_training(self, tmp_path):
        env, mechanism = _setup()
        first = train_parallel(
            env,
            mechanism,
            4,
            seed=3,
            sync_every=2,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        env, mechanism = _setup()
        again = train_parallel(
            env,
            mechanism,
            4,
            seed=3,
            sync_every=2,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        assert training_fingerprint(again) == training_fingerprint(first)

    def test_misaligned_resume_rejected(self, tmp_path):
        env, mechanism = _setup()
        train_parallel(
            env,
            mechanism,
            2,
            seed=4,
            sync_every=2,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        env, mechanism = _setup()
        with pytest.raises(ValueError, match="round boundary"):
            train_parallel(
                env,
                mechanism,
                6,
                seed=4,
                    sync_every=3,
                checkpoint_every=3,
                checkpoint_dir=str(tmp_path),
            )


class TestJournal:
    def test_header_and_round_records(self, tmp_path):
        from repro.parallel.training import (
            KIND_TRAIN_HEADER,
            KIND_TRAIN_ROUND,
        )
        from repro.resilience.journal import RunJournal, read_journal

        env, mechanism = _setup()
        path = tmp_path / "train.jsonl"
        with RunJournal(path) as journal:
            train_parallel(
                env, mechanism, 6, seed=8, sync_every=2,
                journal=journal,
            )
        records = read_journal(path).records
        kinds = [r.kind for r in records]
        assert kinds.count(KIND_TRAIN_HEADER) == 1
        assert kinds.count(KIND_TRAIN_ROUND) == 3
        assert records[0].data["episodes"] == 6


class TestFailures:
    def test_failing_episode_raises_its_own_error_at_once(self, monkeypatch):
        # A seeded episode fails the same way on every attempt, so the
        # engine must not retry it: the original exception surfaces on
        # the first attempt and no later episode runs.
        from repro.experiments import runner

        real = runner.run_episode
        calls = []

        def failing(env, mechanism, seed=None):
            calls.append(seed)
            if len(calls) == 3:
                raise ZeroDivisionError("episode 2 divides by zero")
            return real(env, mechanism, seed=seed)

        monkeypatch.setattr(runner, "run_episode", failing)
        env, mechanism = _setup()
        with pytest.raises(ZeroDivisionError, match="episode 2"):
            train_parallel(env, mechanism, 6, seed=2, sync_every=2)
        assert len(calls) == 3


class TestGuard:
    def test_drain_mid_round_stops_at_last_whole_round(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import runner
        from repro.resilience.signals import ShutdownGuard
        from repro.resilience.training import (
            checkpoint_digest,
            latest_checkpoint,
        )

        recipe = dict(seed=9, sync_every=2, checkpoint_every=2)
        golden_dir = tmp_path / "golden"
        env, mechanism = _setup()
        golden = train_parallel(
            env, mechanism, 6, checkpoint_dir=str(golden_dir), **recipe
        )

        # Drain while round 2 (episodes 2 and 3) is being collected: the
        # guard is checked before each episode, so episode 3 never runs
        # and round 2 is discarded without being absorbed.
        guard = ShutdownGuard()
        real = runner.run_episode
        calls = []

        def draining_after_episode_2(env, mechanism, seed=None):
            calls.append(seed)
            if len(calls) == 3:
                guard.request()
            return real(env, mechanism, seed=seed)

        monkeypatch.setattr(runner, "run_episode", draining_after_episode_2)
        drill_dir = tmp_path / "drill"
        env, mechanism = _setup()
        drained = train_parallel(
            env,
            mechanism,
            6,
            checkpoint_dir=str(drill_dir),
            guard=guard,
            **recipe,
        )
        monkeypatch.setattr(runner, "run_episode", real)
        assert len(calls) == 3
        assert training_rows(drained) == training_rows(golden)[:2]
        assert latest_checkpoint(drill_dir).name == "ep00000002"

        env, mechanism = _setup()
        resumed = train_parallel(
            env, mechanism, 6, checkpoint_dir=str(drill_dir), **recipe
        )
        assert training_fingerprint(resumed) == training_fingerprint(golden)
        assert checkpoint_digest(
            latest_checkpoint(drill_dir)
        ) == checkpoint_digest(latest_checkpoint(golden_dir))
