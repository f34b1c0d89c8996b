"""Chaos harness: deterministic mixtures, accounting audit, kill/resume."""

from __future__ import annotations

import pytest

from repro.resilience.chaos import (
    EXPECTED_OUTCOME,
    TRAIN_DRILL,
    ChaosConfig,
    chaos_items,
    kill_resume_grid,
    kill_resume_training_setup,
    run_chaos,
    run_kill_resume,
    run_kill_resume_training,
)

pytestmark = pytest.mark.resilience

SMALL = ChaosConfig(
    n_echo=3,
    n_flaky=1,
    n_fail=1,
    n_crash=1,
    n_hang=1,
    n_unpicklable=1,
    # Bounds execution only: the pool's start ack excludes worker cold
    # start from the clock, so a loaded host can't fail healthy items.
    item_timeout=2.0,
)


class TestChaosItems:
    def test_mixture_is_deterministic_in_seed(self, tmp_path):
        a = chaos_items(SMALL, scratch_dir=str(tmp_path / "a"))
        b = chaos_items(SMALL, scratch_dir=str(tmp_path / "b"))
        assert [i["kind"] for i in a] == [i["kind"] for i in b]

    def test_different_seed_different_order(self, tmp_path):
        a = chaos_items(SMALL, scratch_dir=str(tmp_path / "a"))
        config = ChaosConfig(
            **{**SMALL.__dict__, "seed": 1}
        )
        b = chaos_items(config, scratch_dir=str(tmp_path / "b"))
        assert [i["kind"] for i in a] != [i["kind"] for i in b]

    def test_every_kind_has_a_contract(self, tmp_path):
        kinds = {i["kind"] for i in chaos_items(SMALL, str(tmp_path))}
        assert kinds <= set(EXPECTED_OUTCOME)


class TestRunChaos:
    def test_accounting_invariant_holds(self, tmp_path):
        report = run_chaos(
            SMALL,
            journal_path=str(tmp_path / "chaos.jsonl"),
            scratch_dir=str(tmp_path / "scratch"),
        )
        assert report.ok, report.render()
        assert report.n_items == SMALL.n_items
        assert report.delivered == SMALL.n_echo + SMALL.n_flaky
        assert report.quarantined == (
            SMALL.n_fail + SMALL.n_crash + SMALL.n_hang + SMALL.n_unpicklable
        )
        assert not report.unaccounted
        assert report.replay_matches

    def test_in_process_execution_refused(self):
        with pytest.raises(ValueError, match="workers >= 2"):
            run_chaos(ChaosConfig(workers=1))


class TestKillResume:
    def test_grid_is_deterministic(self):
        assert kill_resume_grid(0) == kill_resume_grid(0)
        assert kill_resume_grid(0) != kill_resume_grid(1)

    def test_sigkilled_sweep_resumes_to_golden_fingerprint(self, tmp_path):
        report = run_kill_resume(
            workers=2,
            seed=0,
            journal_path=str(tmp_path / "sweep.jsonl"),
            kill_after_items=1,
        )
        assert report["ok"], report
        assert (
            report["resumed_fingerprint"] == report["golden_fingerprint"]
        )
        # The SIGKILL takes the driver's spawn workers and resource
        # tracker with it: nothing is left orphaned.
        assert report["survivors"] == 0


class TestKillResumeTraining:
    def test_setup_is_deterministic(self):
        _env_a, mech_a = kill_resume_training_setup(0)
        _env_b, mech_b = kill_resume_training_setup(0)
        import numpy as np

        np.testing.assert_array_equal(
            mech_a.exterior.policy.flat_parameters(),
            mech_b.exterior.policy.flat_parameters(),
        )

    def test_drill_checkpoints_every_round(self):
        assert TRAIN_DRILL["sync_every"] == TRAIN_DRILL["checkpoint_every"]

    @pytest.mark.train
    def test_sigkilled_training_resumes_to_golden(self, tmp_path):
        report = run_kill_resume_training(
            workers=2,
            seed=0,
            scratch_dir=str(tmp_path),
            kill_after_rounds=1,
        )
        assert report["ok"], report
        assert report["resumed_fingerprint"] == report["golden_fingerprint"]
        assert (
            report["resumed_checkpoint_digest"]
            == report["golden_checkpoint_digest"]
        )
        assert report["survivors"] == 0
