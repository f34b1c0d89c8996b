"""Leaderboard aggregation: ranking, regret, pooled efficiency, schema."""

from __future__ import annotations

import pytest

from repro.tournament.leaderboard import (
    LEADERBOARD_SCHEMA_VERSION,
    build_leaderboard,
)

pytestmark = pytest.mark.tournament


def _cell(mechanism, accuracy, spent, budget=10.0, faulted=False,
          seed_offset=0, rounds=5, learning_time=50.0):
    return {
        "key": {
            "mechanism": mechanism,
            "population": "p",
            "n_nodes": 4,
            "base_budget": budget,
            "budget": budget,
            "fault_profile": "mixed" if faulted else "clean",
            "faulted": faulted,
            "seed_offset": seed_offset,
        },
        "eval_episodes": [
            {
                "final_accuracy": accuracy,
                "budget_spent": spent,
                "rounds": rounds,
                "total_learning_time": learning_time,
            }
        ],
    }


class TestBuildLeaderboard:
    def test_ranking_by_accuracy_then_name(self):
        board = build_leaderboard(
            [
                _cell("slow", 0.5, 5.0),
                _cell("fast", 0.9, 5.0),
                _cell("also_fast", 0.9, 5.0),
            ]
        )
        assert [r.mechanism for r in board.rows] == [
            "also_fast", "fast", "slow",
        ]
        assert [r.rank for r in board.rows] == [1, 2, 3]

    def test_fault_regret_is_clean_minus_faulted(self):
        board = build_leaderboard(
            [
                _cell("m", 0.8, 5.0, faulted=False),
                _cell("m", 0.6, 5.0, faulted=True),
            ]
        )
        assert board.rows[0].fault_regret == pytest.approx(0.2)

    def test_regret_zero_without_both_regimes(self):
        board = build_leaderboard([_cell("m", 0.8, 5.0)])
        assert board.rows[0].fault_regret == 0.0

    def test_efficiency_is_pooled_ratio(self):
        # One episode spends nothing: the pooled ratio must stay finite
        # (mean accuracy / mean fraction), not explode like a mean of
        # per-episode ratios would.
        board = build_leaderboard(
            [
                _cell("m", 0.8, 5.0, budget=10.0),
                _cell("m", 0.2, 0.0, budget=10.0, seed_offset=1),
            ]
        )
        row = board.rows[0]
        assert row.budget_efficiency == pytest.approx(0.5 / 0.25)

    def test_ci_zero_for_single_seed(self):
        board = build_leaderboard([_cell("m", 0.8, 5.0)])
        assert board.rows[0].accuracy_ci95 == 0.0

    def test_ci_positive_across_seeds(self):
        board = build_leaderboard(
            [
                _cell("m", 0.7, 5.0, seed_offset=0),
                _cell("m", 0.9, 5.0, seed_offset=1),
            ]
        )
        # t(0.975, 1) = 12.706, s = 0.1414, K = 2: 12.706 * 0.1414 / 1.414
        assert board.rows[0].accuracy_ci95 == pytest.approx(1.2706, abs=1e-4)

    def test_round_time_is_learning_time_per_round(self):
        board = build_leaderboard(
            [_cell("m", 0.8, 5.0, rounds=10, learning_time=40.0)]
        )
        assert board.rows[0].mean_round_time == pytest.approx(4.0)


class TestSchema:
    def test_payload_shape(self):
        board = build_leaderboard(
            [_cell("m", 0.8, 5.0)], populations=[{"name": "p", "n_nodes": 4}]
        )
        payload = board.to_payload()
        assert payload["schema_version"] == LEADERBOARD_SCHEMA_VERSION
        assert payload["populations"] == [{"name": "p", "n_nodes": 4}]
        (row,) = payload["rows"]
        assert set(row) == {
            "rank", "mechanism", "mean_accuracy", "accuracy_ci95",
            "budget_efficiency", "mean_round_time", "fault_regret",
            "episodes", "cells",
        }

    def test_row_lookup(self):
        board = build_leaderboard([_cell("m", 0.8, 5.0)])
        assert board.row("m").mechanism == "m"
        with pytest.raises(KeyError, match="not on the leaderboard"):
            board.row("absent")

    def test_markdown_renders_every_row(self):
        board = build_leaderboard(
            [_cell("a", 0.9, 5.0), _cell("b", 0.7, 5.0)]
        )
        text = board.to_markdown()
        assert "| 1 | a |" in text and "| 2 | b |" in text
