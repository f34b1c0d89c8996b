"""Budget sweeps: Figs. 4 (MNIST), 5 (Fashion-MNIST) and 6 (CIFAR-10).

For every budget η in a grid and every mechanism, train on the same fleet
(same seed → identical hardware/data draws) and evaluate: final accuracy
(panel a), rounds completed (panel b) and time efficiency (panel c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.results import EvaluationSummary
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

_log = get_logger("experiments.budget_sweep")

#: Budget grids per task.  CIFAR-10's grid is larger because "processing
#: the same number of samples requires more computing resources, which
#: leads to different budget constraints" (§VI-B) — its images are ~4× the
#: bits, so per-round payments are ~4× higher.
DEFAULT_BUDGETS: Dict[str, tuple] = {
    "mnist": (20.0, 40.0, 60.0, 80.0, 100.0),
    "fashion_mnist": (20.0, 40.0, 60.0, 80.0, 100.0),
    "cifar10": (80.0, 160.0, 240.0, 320.0, 400.0),
}


@dataclass
class BudgetSweepResult:
    """All series of one figure (a/b/c panels for every mechanism)."""

    task: str
    n_nodes: int
    budgets: List[float]
    #: mechanism -> list of summaries aligned with ``budgets``
    summaries: Dict[str, List[EvaluationSummary]] = field(default_factory=dict)

    def series(self, mechanism: str, metric: str) -> np.ndarray:
        """One panel's y-series: metric ∈ {accuracy, rounds, efficiency}."""
        attr = {
            "accuracy": "accuracy_mean",
            "rounds": "rounds_mean",
            "efficiency": "efficiency_mean",
        }[metric]
        return np.array([getattr(s, attr) for s in self.summaries[mechanism]])

    def to_payload(self) -> Dict:
        return {
            "task": self.task,
            "n_nodes": self.n_nodes,
            "budgets": self.budgets,
            "mechanisms": {
                name: [
                    {
                        "accuracy": s.accuracy_mean,
                        "accuracy_std": s.accuracy_std,
                        "rounds": s.rounds_mean,
                        "efficiency": s.efficiency_mean,
                        "total_time": s.time_mean,
                        "utility": s.utility_mean,
                    }
                    for s in summaries
                ]
                for name, summaries in self.summaries.items()
            },
        }


def run_budget_sweep(
    task: str = "mnist",
    budgets: Sequence[float] = (),
    mechanisms: Sequence[str] = ("chiron", "drl_single", "greedy"),
    n_nodes: int = 5,
    train_episodes: int = 40,
    eval_episodes: int = 5,
    seed: int = 0,
    tier: str = "quick",
    accuracy_mode: str = "surrogate",
    max_rounds: int = 300,
    n_seeds: int = 1,
    workers: int = 1,
) -> BudgetSweepResult:
    """Regenerate one of Figs. 4/5/6 as numeric series.

    ``n_seeds`` > 1 trains independent agents on independently drawn
    fleets per (mechanism, budget) cell and pools their evaluation
    episodes, trading runtime for variance.

    The (mechanism × budget × seed_offset) grid runs through
    :func:`repro.parallel.run_sweep` as hermetic work items; ``workers``
    only changes wall-clock time, never a result (same fleet per seed
    across mechanisms, same per-cell RNG streams as the historical
    sequential loop).
    """
    check_positive("train_episodes", train_episodes)
    check_positive("eval_episodes", eval_episodes)
    check_positive("n_seeds", n_seeds)
    budgets = list(budgets) or list(DEFAULT_BUDGETS[task])
    result = BudgetSweepResult(task=task, n_nodes=n_nodes, budgets=budgets)

    from repro.parallel import episodes_from_dicts, grid_items, run_sweep

    items = grid_items(
        mechanisms=mechanisms,
        budgets=budgets,
        n_seeds=n_seeds,
        seed=seed,
        train_episodes=train_episodes,
        eval_episodes=eval_episodes,
        tier=tier,
        build_kwargs={
            "task_name": task,
            "n_nodes": n_nodes,
            "accuracy_mode": accuracy_mode,
            "max_rounds": max_rounds,
        },
    )
    sweep = run_sweep(items, workers=workers).raise_on_quarantine()
    cells: Dict[tuple, list] = {}
    for item in sweep.items:
        key = (item["key"]["mechanism"], item["key"]["budget"])
        cells.setdefault(key, []).extend(
            episodes_from_dicts(item["eval_episodes"])
        )
    for name in mechanisms:
        result.summaries[name] = []
        for budget in budgets:
            summary = EvaluationSummary.from_episodes(
                name, cells[(name, budget)]
            )
            result.summaries[name].append(summary)
            _log.info(
                "%s/%s η=%g: acc=%.3f rounds=%.1f eff=%.2f",
                task,
                name,
                budget,
                summary.accuracy_mean,
                summary.rounds_mean,
                summary.efficiency_mean,
            )
    return result
