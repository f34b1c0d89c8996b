"""Parallel training engine: determinism, rounds, checkpoints, guards.

The cheap contracts (purity in the seed, checkpoint/resume
bit-identity, validation errors) run entirely in-process (``workers=1``
uses the pool's in-process path — no spawn cost).  The tests that launch real worker processes carry the ``train``
marker on top of ``parallel``; they are the executable form of the
worker-count-invariance claim and are slow on 1-core hosts.
"""

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


def _fingerprint(episodes=6, *, seed=11, workers=1, **kwargs):
    env, mechanism = _setup()
    history = train_parallel(
        env, mechanism, episodes, seed=seed, workers=workers, **kwargs
    )
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
        history = train_parallel(env, mechanism, 3, seed=5, workers=1)
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
        # Deriving the cadence from the worker count would silently break
        # worker invariance; pin it as a plain constant.
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
            workers=1,
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
            workers=1,
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
            workers=1,
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
            workers=1,
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
            workers=1,
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
            workers=1,
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
                workers=1,
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
                env, mechanism, 6, seed=8, workers=1, sync_every=2,
                journal=journal,
            )
        records = read_journal(path).records
        kinds = [r.kind for r in records]
        assert kinds.count(KIND_TRAIN_HEADER) == 1
        assert kinds.count(KIND_TRAIN_ROUND) == 3
        assert records[0].data["episodes"] == 6


@pytest.mark.train
class TestWorkerInvariance:
    def test_fingerprint_identical_across_worker_counts(self):
        # The tentpole claim, executed: real spawned workers, same curve.
        assert _fingerprint(workers=2, sync_every=2) == _fingerprint(
            workers=1, sync_every=2
        )
