"""Run a tournament grid through the parallel sweep engine.

:func:`run_tournament` lowers a :class:`~repro.tournament.grid.TournamentGrid`
to hermetic sweep items, executes them via
:func:`repro.parallel.run_sweep` (journal/resume-capable through
:mod:`repro.resilience`, drainable via a ``ShutdownGuard``), and
aggregates the settled cells into a ranked
:class:`~repro.tournament.leaderboard.Leaderboard`.

The tournament's determinism contract is inherited from the engine: the
:meth:`TournamentResult.fingerprint` is a pure function of the grid, so
it is bit-identical for any worker count and across journal resumes
(``tests/tournament/test_runner.py`` asserts both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro import obs as _obs
from repro.parallel.engine import SweepResult, run_sweep
from repro.tournament.grid import PopulationSpec, TournamentGrid
from repro.tournament.leaderboard import Leaderboard, build_leaderboard


def describe_population(spec: PopulationSpec, seed: int) -> Dict[str, Any]:
    """A population's leaderboard entry: the spec plus cluster structure.

    For clustered fleets the deterministic quantile-tier sizes and
    per-tier price-cap means are included (computed on the default
    hardware distribution at the grid seed — the same draw every cell's
    environment build starts from).
    """
    entry: Dict[str, Any] = {
        "name": spec.name,
        "n_nodes": spec.n_nodes,
        "backend": spec.backend,
        "availability": spec.availability,
        "budget_scale": spec.budget_scale,
        "max_rounds": spec.max_rounds,
        "n_clusters": spec.n_clusters,
        "mechanisms": list(spec.mechanisms) if spec.mechanisms else None,
    }
    if spec.n_clusters:
        from repro.economics.hardware import sample_profiles
        from repro.population.api import as_population

        population = as_population(
            sample_profiles(spec.n_nodes, rng=np.random.default_rng(seed)),
            backend=spec.backend,
        )
        view = population.cluster_view(spec.n_clusters)
        caps = population.price_caps(1)
        entry["cluster_sizes"] = [int(s) for s in view.sizes()]
        entry["cluster_mean_price_cap"] = [
            float(v) for v in view.aggregate(caps)
        ]
    return entry


@dataclass
class TournamentResult:
    """A settled tournament: grid, raw sweep, ranked leaderboard."""

    grid: TournamentGrid
    sweep: SweepResult
    leaderboard: Leaderboard

    def fingerprint(self) -> str:
        """Worker-count-invariant digest of every cell's result data."""
        return self.sweep.fingerprint()

    def integrity(self) -> str:
        return self.sweep.integrity()

    def to_payload(self) -> Dict[str, Any]:
        return {
            "grid": self.grid.to_dict(),
            "fingerprint": self.fingerprint(),
            "integrity": self.integrity(),
            "workers": self.sweep.workers,
            "elapsed_seconds": self.sweep.elapsed,
            "cells": len(self.sweep.items),
            "leaderboard": self.leaderboard.to_payload(),
        }


def run_tournament(
    grid: TournamentGrid,
    workers: int = 1,
    journal=None,
    guard=None,
) -> TournamentResult:
    """Cross-evaluate every grid mechanism; returns the ranked result.

    ``journal`` (a path or an open
    :class:`~repro.resilience.journal.RunJournal`) makes the run
    crash-safe: re-running with the same journal skips settled cells and
    reproduces the uninterrupted fingerprint exactly.  ``guard`` turns
    SIGTERM/SIGINT into a graceful drain.
    """
    items = grid.items()
    with _obs.span("tournament.run"):
        sweep = run_sweep(
            items, workers=workers, journal=journal, guard=guard
        ).raise_on_quarantine()
    cells: List[Dict[str, Any]] = [
        {"key": item["key"], "eval_episodes": item["eval_episodes"]}
        for item in sweep.items
    ]
    populations = [
        describe_population(spec, grid.seed) for spec in grid.populations
    ]
    leaderboard = build_leaderboard(cells, populations=populations)
    if _obs.enabled():
        _obs.counter("tournament.runs").inc()
        _obs.gauge("tournament.cells").set(len(cells))
    return TournamentResult(grid=grid, sweep=sweep, leaderboard=leaderboard)


def render_tournament(result: TournamentResult) -> str:
    """Human-readable leaderboard (markdown table plus provenance)."""
    grid = result.grid
    header = (
        f"# Tournament leaderboard\n\n"
        f"{len(grid.mechanisms)} mechanisms × "
        f"{len(grid.populations)} populations × "
        f"{len(grid.budgets)} budgets × "
        f"{len(grid.fault_profiles)} fault profiles × "
        f"{grid.n_seeds} seeds = {len(result.sweep.items)} cells "
        f"(seed {grid.seed}, tier {grid.tier})\n\n"
        f"fingerprint: `{result.fingerprint()}`\n"
    )
    populations = "\n".join(
        f"- **{entry['name']}**: N={entry['n_nodes']} "
        f"[{entry['backend']}] availability={entry['availability']}"
        + (
            f", {entry['n_clusters']} clusters "
            f"(sizes {entry['cluster_sizes']})"
            if entry.get("n_clusters")
            else ""
        )
        for entry in result.leaderboard.populations
    )
    return (
        header
        + "\n"
        + result.leaderboard.to_markdown()
        + "\n\n## Populations\n\n"
        + populations
        + "\n"
    )
