"""Ranked tournament leaderboards: aggregation, JSON schema, markdown.

A *cell* is one settled sweep item (mechanism × population × budget ×
fault profile × seed); the leaderboard aggregates every cell's evaluation
episodes per mechanism:

* **mean accuracy** — over all evaluation episodes, with a 95% Student-t
  CI from the per-seed means (seeds are the independent replicates;
  episodes within a seed share an environment draw);
* **budget efficiency** — pooled accuracy per pooled *fraction of budget
  spent* (``mean(accuracy) / mean(spent/η)``), comparable across fleets
  whose absolute budgets differ by orders of magnitude.  The pooled ratio
  (rather than a mean of per-episode ratios) keeps the metric finite when
  individual episodes spend ~nothing;
* **round time** — mean seconds of learning time per kept round;
* **fault regret** — mean accuracy on clean cells minus mean accuracy on
  faulted cells (how much the mechanism loses to failures).

Ranking is by mean accuracy, then budget efficiency, then name — fully
deterministic.  The JSON payload carries
:data:`LEADERBOARD_SCHEMA_VERSION` so artifact consumers can detect shape
changes (schema documented in docs/mechanisms.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Bump when the leaderboard payload gains/loses fields.
LEADERBOARD_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LeaderboardRow:
    """One mechanism's aggregated tournament standing."""

    rank: int
    mechanism: str
    mean_accuracy: float
    accuracy_ci95: float
    budget_efficiency: float
    mean_round_time: float
    fault_regret: float
    episodes: int
    cells: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "mechanism": self.mechanism,
            "mean_accuracy": self.mean_accuracy,
            "accuracy_ci95": self.accuracy_ci95,
            "budget_efficiency": self.budget_efficiency,
            "mean_round_time": self.mean_round_time,
            "fault_regret": self.fault_regret,
            "episodes": self.episodes,
            "cells": self.cells,
        }


@dataclass
class Leaderboard:
    """Ranked rows plus the population roster they were computed over."""

    rows: List[LeaderboardRow]
    populations: List[Dict[str, Any]]

    def row(self, mechanism: str) -> LeaderboardRow:
        for row in self.rows:
            if row.mechanism == mechanism:
                return row
        raise KeyError(
            f"mechanism {mechanism!r} not on the leaderboard; present: "
            f"{[r.mechanism for r in self.rows]}"
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema_version": LEADERBOARD_SCHEMA_VERSION,
            "rows": [row.to_dict() for row in self.rows],
            "populations": list(self.populations),
        }

    def to_markdown(self) -> str:
        lines = [
            "| rank | mechanism | accuracy | budget eff. | round time (s) "
            "| fault regret | episodes |",
            "|-----:|-----------|---------:|------------:|---------------:"
            "|-------------:|---------:|",
        ]
        for row in self.rows:
            lines.append(
                f"| {row.rank} | {row.mechanism} "
                f"| {row.mean_accuracy:.4f} ± {row.accuracy_ci95:.4f} "
                f"| {row.budget_efficiency:.4f} "
                f"| {row.mean_round_time:.2f} "
                f"| {row.fault_regret:+.4f} "
                f"| {row.episodes} |"
            )
        return "\n".join(lines)


def _ci95(per_seed_means: Sequence[float]) -> float:
    """Half-width of the 95% Student-t CI over independent seed means."""
    from scipy import stats  # slow to import, and only this CI needs it

    values = np.asarray(list(per_seed_means), dtype=np.float64)
    if values.size < 2:
        return 0.0
    quantile = stats.t.ppf(0.975, values.size - 1)
    return float(quantile * values.std(ddof=1) / np.sqrt(values.size))


def build_leaderboard(
    cells: Sequence[Dict[str, Any]],
    populations: Optional[List[Dict[str, Any]]] = None,
) -> Leaderboard:
    """Aggregate settled sweep cells into a ranked leaderboard.

    Each cell dict needs ``key`` (the grid-cell key: mechanism, budget,
    fault profile, seed_offset, faulted) and ``eval_episodes`` (the
    :class:`~repro.experiments.results.EpisodeResult` dicts the sweep item
    returned).
    """
    by_mechanism: Dict[str, List[Dict[str, Any]]] = {}
    for cell in cells:
        by_mechanism.setdefault(cell["key"]["mechanism"], []).append(cell)

    rows: List[LeaderboardRow] = []
    for mechanism, mech_cells in by_mechanism.items():
        accuracies: List[float] = []
        spent_fractions: List[float] = []
        round_times: List[float] = []
        clean: List[float] = []
        faulted: List[float] = []
        seed_accuracies: Dict[int, List[float]] = {}
        episodes = 0
        for cell in mech_cells:
            key = cell["key"]
            budget = float(key["budget"])
            for episode in cell["eval_episodes"]:
                accuracy = float(episode["final_accuracy"])
                accuracies.append(accuracy)
                spent_fractions.append(
                    float(episode["budget_spent"]) / budget
                )
                rounds = max(int(episode["rounds"]), 1)
                round_times.append(
                    float(episode["total_learning_time"]) / rounds
                )
                (faulted if key.get("faulted") else clean).append(accuracy)
                seed_accuracies.setdefault(
                    int(key.get("seed_offset", 0)), []
                ).append(accuracy)
                episodes += 1
        regret = (
            float(np.mean(clean)) - float(np.mean(faulted))
            if clean and faulted
            else 0.0
        )
        rows.append(
            LeaderboardRow(
                rank=0,  # assigned after sorting
                mechanism=mechanism,
                mean_accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
                accuracy_ci95=_ci95(
                    [float(np.mean(v)) for v in seed_accuracies.values()]
                ),
                budget_efficiency=(
                    float(np.mean(accuracies))
                    / max(float(np.mean(spent_fractions)), 1e-12)
                    if accuracies
                    else 0.0
                ),
                mean_round_time=(
                    float(np.mean(round_times)) if round_times else 0.0
                ),
                fault_regret=regret,
                episodes=episodes,
                cells=len(mech_cells),
            )
        )
    rows.sort(
        key=lambda r: (-r.mean_accuracy, -r.budget_efficiency, r.mechanism)
    )
    import dataclasses as _dc

    ranked = [
        _dc.replace(row, rank=position + 1)
        for position, row in enumerate(rows)
    ]
    return Leaderboard(rows=ranked, populations=list(populations or []))
