"""Convergence experiments: Fig. 3 (5 nodes) and Fig. 7 (100 nodes).

Trains a DRL mechanism for a number of budget-bounded episodes and records
the episode-reward series.  The paper's claim: Chiron's reward rises and
stabilizes (Figs. 3, 7a) while the flat single-agent baseline fails to
converge at 100 nodes (Fig. 7b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.builder import build_environment
from repro.experiments.mechanisms import make_mechanism
from repro.experiments.results import TrainingHistory
from repro.experiments.runner import train_mechanism
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import check_positive


@dataclass
class ConvergenceResult:
    """Reward series for one mechanism's training run.

    ``metric`` records which episode reward the series plots:
    ``"system"`` is the hierarchical sum ``Σ(r^E + r^I)`` (what Chiron as a
    whole optimizes — used for Fig. 3), ``"exterior"`` is ``Σ r^E`` alone
    (used for the Fig. 7 scale comparison, where the flat baseline has no
    inner signal).
    """

    mechanism: str
    task: str
    n_nodes: int
    budget: float
    rewards: np.ndarray
    smoothed: np.ndarray
    history: TrainingHistory
    metric: str = "exterior"

    @property
    def improved(self) -> float:
        """Late-minus-early smoothed reward (positive = learning)."""
        n = self.smoothed.size
        if n < 4:
            return 0.0
        quarter = max(1, n // 4)
        return float(self.smoothed[-quarter:].mean() - self.smoothed[:quarter].mean())

    def to_payload(self) -> Dict:
        return {
            "mechanism": self.mechanism,
            "task": self.task,
            "n_nodes": self.n_nodes,
            "budget": self.budget,
            "metric": self.metric,
            "rewards": self.rewards.tolist(),
            "smoothed": self.smoothed.tolist(),
            "improved": self.improved,
        }


def run_convergence(
    mechanism_name: str = "chiron",
    task: str = "mnist",
    n_nodes: int = 5,
    budget: float = 60.0,
    episodes: int = 60,
    seed: int = 0,
    tier: str = "quick",
    accuracy_mode: str = "surrogate",
    smoothing_window: int = 10,
    max_rounds: int = 300,
    metric: str = "exterior",
) -> ConvergenceResult:
    """Train ``mechanism_name`` and return its episode-reward convergence.

    One sequential training run in this process, a pure function of the
    arguments.
    """
    check_positive("episodes", episodes)
    if metric not in ("exterior", "system"):
        raise ValueError(
            f"metric must be 'exterior' or 'system', got {metric!r}"
        )
    seeds = SeedSequenceFactory(seed)
    build = build_environment(
        task_name=task,
        n_nodes=n_nodes,
        budget=budget,
        accuracy_mode=accuracy_mode,
        seed=seed,
        max_rounds=max_rounds,
    )
    mechanism = make_mechanism(
        mechanism_name, build.env, rng=seeds.generator("mechanism"), tier=tier
    )
    history = train_mechanism(build.env, mechanism, episodes)
    if metric == "system":
        rewards = np.array(
            [e.reward_exterior + e.reward_inner for e in history.episodes]
        )
    else:
        rewards = history.reward_curve
    window = max(1, min(smoothing_window, rewards.size))
    kernel = np.ones(window) / window
    padded = np.concatenate([np.full(window - 1, rewards[0]), rewards])
    smoothed = np.convolve(padded, kernel, mode="valid")
    return ConvergenceResult(
        mechanism=mechanism_name,
        task=task,
        n_nodes=n_nodes,
        budget=budget,
        rewards=rewards,
        smoothed=smoothed,
        history=history,
        metric=metric,
    )
