"""Table I: Chiron at 100 edge nodes under MNIST.

For each budget η ∈ {140, 220, 300, 380} the paper reports final accuracy,
rounds completed and time efficiency.  The qualitative signature: accuracy
and rounds grow with the budget, and time efficiency sits noticeably below
the 5-node ≈100% (≈72-73%) because equalizing 100 heterogeneous nodes near
their participation floors leaves little pricing slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.results import EvaluationSummary
from repro.utils.logging import get_logger

_log = get_logger("experiments.table1")

PAPER_TABLE1 = {
    140.0: {"accuracy": 0.916, "rounds": 16, "efficiency": 0.713},
    220.0: {"accuracy": 0.929, "rounds": 23, "efficiency": 0.722},
    300.0: {"accuracy": 0.938, "rounds": 31, "efficiency": 0.727},
    380.0: {"accuracy": 0.943, "rounds": 34, "efficiency": 0.734},
}


@dataclass
class Table1Result:
    """Measured rows aligned with the paper's Table I."""

    n_nodes: int
    budgets: List[float]
    rows: List[EvaluationSummary] = field(default_factory=list)

    def to_payload(self) -> Dict:
        return {
            "n_nodes": self.n_nodes,
            "rows": [
                {
                    "budget": budget,
                    "accuracy": row.accuracy_mean,
                    "rounds": row.rounds_mean,
                    "efficiency": row.efficiency_mean,
                    "paper": PAPER_TABLE1.get(budget),
                }
                for budget, row in zip(self.budgets, self.rows)
            ],
        }


def run_table1(
    budgets: Sequence[float] = (140.0, 220.0, 300.0, 380.0),
    n_nodes: int = 100,
    task: str = "mnist",
    train_episodes: int = 50,
    eval_episodes: int = 5,
    seed: int = 0,
    tier: str = "quick",
    max_rounds: int = 200,
    n_seeds: int = 1,
    workers: int = 1,
) -> Table1Result:
    """Train Chiron at 100-node scale for each budget and evaluate.

    ``n_seeds`` > 1 trains independent agents on independently drawn
    fleets and pools their evaluation episodes — at quick scale a single
    short training run is noisy enough that one budget can land on a poor
    policy by luck.

    Every (budget, seed_offset) cell is an independent hermetic work item
    run through :func:`repro.parallel.run_sweep`; ``workers > 1`` fans
    the cells over a process pool and cannot change any number in the
    table (the engine's determinism contract — ``workers=1`` also
    reproduces the pre-engine sequential loop bit for bit).
    """
    from repro.parallel import grid_items, run_sweep

    result = Table1Result(n_nodes=n_nodes, budgets=list(budgets))
    items = grid_items(
        mechanisms=["chiron"],
        budgets=budgets,
        n_seeds=n_seeds,
        seed=seed,
        train_episodes=train_episodes,
        eval_episodes=eval_episodes,
        tier=tier,
        build_kwargs={
            "task_name": task,
            "n_nodes": n_nodes,
            "accuracy_mode": "surrogate",
            "max_rounds": max_rounds,
        },
    )
    sweep = run_sweep(items, workers=workers).raise_on_quarantine()
    from repro.parallel import episodes_from_dicts

    by_budget: Dict[float, list] = {budget: [] for budget in budgets}
    for item in sweep.items:
        by_budget[item["key"]["budget"]].extend(
            episodes_from_dicts(item["eval_episodes"])
        )
    for budget in budgets:
        summary = EvaluationSummary.from_episodes("chiron", by_budget[budget])
        result.rows.append(summary)
        _log.info(
            "table1 η=%g: acc=%.3f rounds=%.1f eff=%.3f",
            budget,
            summary.accuracy_mean,
            summary.rounds_mean,
            summary.efficiency_mean,
        )
    return result
