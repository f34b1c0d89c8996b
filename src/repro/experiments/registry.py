"""Per-experiment index: one entry per paper figure/table (DESIGN.md §4).

Every entry binds an experiment id to a parameterized runner with two
scales:

* ``quick`` — scaled-down (surrogate accuracy, tens of episodes); finishes
  in seconds-to-minutes on a laptop.  Used by the benchmark suite.
* ``paper`` — the paper's workload sizes (500 episodes, §VI-A
  hyper-parameters), same code path.  ``chiron-repro run all --scale
  paper`` took 12.5 minutes at one worker on a 2-vCPU host, about 3 of
  them in the tournament.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.experiments.budget_sweep import run_budget_sweep
from repro.experiments.convergence import run_convergence
from repro.experiments.figures import (
    render_budget_sweep,
    render_convergence,
    render_table1,
)
from repro.experiments.table1 import run_table1

RunnerOutput = Tuple[dict, str]  # (json payload, rendered text)


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible figure/table.

    Runners take ``(scale, seed, workers=1)``.  Grid experiments (the
    budget sweeps, Table I, the tournament) fan their cells over a
    :mod:`repro.parallel` process pool when ``workers > 1`` — results are
    worker-count-invariant by the engine's determinism contract.
    Single-training-run experiments (the convergence figures, the λ
    sweep) run in this process and ignore ``workers``, so their output is
    the same for any worker count.
    """

    exp_id: str
    description: str
    #: (scale, seed, workers=1) -> output
    runner: Callable[..., RunnerOutput]


def _scale_params(scale: str, quick: dict, paper: dict) -> dict:
    if scale == "quick":
        return quick
    if scale == "paper":
        return paper
    raise ValueError(f"unknown scale {scale!r}; expected 'quick' or 'paper'")


def _fig3(scale: str, seed: int, workers: int = 1) -> RunnerOutput:
    # Single training run: ``workers`` ignored.
    params = _scale_params(
        scale,
        quick=dict(episodes=120, tier="quick"),
        paper=dict(episodes=500, tier="paper"),
    )
    result = run_convergence(
        mechanism_name="chiron", task="mnist", n_nodes=5, budget=60.0,
        seed=seed, metric="system", **params,
    )
    return result.to_payload(), render_convergence(result)


def _budget_sweep_fig(task: str):
    def runner(scale: str, seed: int, workers: int = 1) -> RunnerOutput:
        params = _scale_params(
            scale,
            quick=dict(train_episodes=40, eval_episodes=5, tier="quick"),
            paper=dict(train_episodes=500, eval_episodes=10, tier="paper"),
        )
        result = run_budget_sweep(
            task=task,
            mechanisms=("chiron", "drl_single", "greedy"),
            n_nodes=5,
            seed=seed,
            workers=workers,
            **params,
        )
        return result.to_payload(), render_budget_sweep(result)

    return runner


def _fig7a(scale: str, seed: int, workers: int = 1) -> RunnerOutput:
    # Single training run: ``workers`` ignored.
    params = _scale_params(
        scale,
        quick=dict(episodes=40, tier="quick"),
        paper=dict(episodes=500, tier="paper"),
    )
    result = run_convergence(
        mechanism_name="chiron", task="mnist", n_nodes=100, budget=300.0,
        seed=seed, max_rounds=150, **params,
    )
    return result.to_payload(), render_convergence(result)


def _fig7b(scale: str, seed: int, workers: int = 1) -> RunnerOutput:
    # Single training run: ``workers`` ignored.
    params = _scale_params(
        scale,
        quick=dict(episodes=40, tier="quick"),
        paper=dict(episodes=500, tier="paper"),
    )
    result = run_convergence(
        mechanism_name="drl_single", task="mnist", n_nodes=100, budget=300.0,
        seed=seed, max_rounds=150, **params,
    )
    return result.to_payload(), render_convergence(result)


def _tournament(scale: str, seed: int, workers: int = 1) -> RunnerOutput:
    import dataclasses

    from repro.tournament import default_grid, render_tournament, run_tournament

    grid = default_grid(seed=seed)
    if scale == "quick":
        grid = dataclasses.replace(grid, train_episodes=1, eval_episodes=2)
    elif scale != "paper":
        raise ValueError(f"unknown scale {scale!r}; expected 'quick' or 'paper'")
    result = run_tournament(grid, workers=workers)
    return result.to_payload(), render_tournament(result)


def _table1(scale: str, seed: int, workers: int = 1) -> RunnerOutput:
    params = _scale_params(
        scale,
        quick=dict(train_episodes=50, eval_episodes=3, tier="quick", n_seeds=3),
        paper=dict(train_episodes=500, eval_episodes=10, tier="paper"),
    )
    result = run_table1(n_nodes=100, seed=seed, workers=workers, **params)
    return result.to_payload(), render_table1(result)


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "fig3": ExperimentSpec(
        "fig3", "Chiron reward convergence, MNIST, 5 nodes", _fig3
    ),
    "fig4": ExperimentSpec(
        "fig4",
        "MNIST budget sweep: accuracy / rounds / time efficiency",
        _budget_sweep_fig("mnist"),
    ),
    "fig5": ExperimentSpec(
        "fig5",
        "Fashion-MNIST budget sweep: accuracy / rounds / time efficiency",
        _budget_sweep_fig("fashion_mnist"),
    ),
    "fig6": ExperimentSpec(
        "fig6",
        "CIFAR-10 budget sweep: accuracy / rounds / time efficiency",
        _budget_sweep_fig("cifar10"),
    ),
    "fig7a": ExperimentSpec(
        "fig7a", "Chiron exterior-agent convergence at 100 nodes", _fig7a
    ),
    "fig7b": ExperimentSpec(
        "fig7b", "Single-agent DRL baseline at 100 nodes (non-convergence)", _fig7b
    ),
    "table1": ExperimentSpec(
        "table1", "Chiron at 100 nodes: accuracy/rounds/efficiency vs budget", _table1
    ),
    "tournament": ExperimentSpec(
        "tournament",
        "[extension] Mechanism-zoo tournament: ranked leaderboard over "
        "populations × budgets × fault profiles",
        _tournament,
    ),
    "ext-lambda": ExperimentSpec(
        "ext-lambda",
        "[extension] λ preference-coefficient sweep (accuracy/time frontier)",
        lambda scale, seed, workers=1: _ext_lambda(scale, seed),
    ),
}


def _ext_lambda(scale: str, seed: int, workers: int = 1) -> RunnerOutput:
    # Single λ-by-λ training chain: ``workers`` ignored.
    from repro.experiments.figures import render_lambda_sweep
    from repro.experiments.preference import run_lambda_sweep

    params = _scale_params(
        scale,
        quick=dict(train_episodes=80, tier="quick"),
        paper=dict(train_episodes=500, tier="paper"),
    )
    result = run_lambda_sweep(seed=seed, **params)
    return result.to_payload(), render_lambda_sweep(result)


def get_experiment(exp_id: str) -> ExperimentSpec:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
