"""Golden training trace: the committed curve must reproduce by digest."""

from __future__ import annotations

import json

import pytest

from repro.testing.training import (
    GOLDEN_TRAINING_NAME,
    RECIPE,
    capture_training,
    training_golden_path,
    training_payload,
    update_training_golden,
    verify_training_golden,
)

pytestmark = pytest.mark.golden


class TestCommittedGolden:
    def test_committed_file_exists(self):
        assert training_golden_path().exists(), (
            "tests/golden/training_chiron_n5.json is missing; regenerate "
            "with `python -m repro.testing update training_chiron_n5`"
        )

    def test_fresh_run_reproduces_committed_fingerprint(self):
        report = verify_training_golden()
        assert report.ok, report.describe()
        assert report.name == GOLDEN_TRAINING_NAME


class TestHarness:
    def test_update_then_verify_roundtrip(self, tmp_path):
        path = update_training_golden(tmp_path)
        assert path == training_golden_path(tmp_path)
        report = verify_training_golden(tmp_path)
        assert report.ok, report.describe()

    def test_missing_file_reported(self, tmp_path):
        report = verify_training_golden(tmp_path)
        assert not report.ok
        assert "update" in report.message

    def test_hand_edited_file_detected(self, tmp_path):
        path = update_training_golden(tmp_path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["rows"][0]["result"]["reward_exterior"] += 1.0
        path.write_text(json.dumps(payload), encoding="utf-8")
        report = verify_training_golden(tmp_path)
        assert not report.ok
        assert "hand-edited" in report.message

    def test_recipe_drift_detected(self, tmp_path):
        path = update_training_golden(tmp_path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["recipe"]["episodes"] = RECIPE["episodes"] + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        report = verify_training_golden(tmp_path)
        assert not report.ok
        assert "recipe" in report.message

    def test_payload_fingerprint_covers_rows(self):
        rows = capture_training()
        payload = training_payload(rows)
        assert payload["schema"].startswith("repro.testing.training/")
        assert payload["recipe"] == RECIPE
        assert len(payload["rows"]) == RECIPE["episodes"]

    def test_recipe_crosses_a_ppo_update(self):
        # The golden must pin a PPO update and an episode trained after
        # it, not only rollouts of the initial policy.
        rows = capture_training()
        stats = {"exterior_approx_kl", "inner_approx_kl"}
        updated = [
            row["episode"] for row in rows if stats <= set(row["diagnostics"])
        ]
        assert updated and updated[0] < len(rows) - 1, updated
