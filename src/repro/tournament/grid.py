"""Declarative tournament grids: mechanisms × populations × budgets × faults.

A :class:`TournamentGrid` is a frozen description of a cross-evaluation:
which registered mechanisms compete, on which fleets
(:class:`PopulationSpec`, including clustered N ≥ 1000 SoA fleets), at
which base budgets, under which fault regimes (:class:`FaultProfile`),
over how many seeds.  :meth:`TournamentGrid.items` lowers the grid to the
hermetic sweep items of :mod:`repro.parallel` — nothing but
:class:`~repro.core.builder.BuildConfig` dicts, mechanism names and seed
integers crosses a process boundary — so tournament results are
worker-count invariant by the engine's determinism contract.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.injector import FaultConfig
from repro.parallel.items import sweep_item


@dataclass(frozen=True)
class PopulationSpec:
    """One fleet the tournament runs on.

    ``budget_scale`` scales the grid's base budgets to the fleet size (a
    1000-node fleet needs ~200× the budget of the paper's 5-node one to
    buy comparable per-node work).  ``mechanisms`` optionally restricts
    which grid mechanisms run on this fleet (e.g. keep DRL mechanisms off
    the N=1000 fleet in quick grids); ``None`` means all of them.
    """

    name: str
    n_nodes: int
    budget_scale: float = 1.0
    availability: float = 1.0
    backend: str = "soa"
    n_clusters: Optional[int] = None
    max_rounds: int = 60
    mechanisms: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class FaultProfile:
    """One fault regime: a mixed crash/straggler/corrupt rate (0 = clean)."""

    name: str
    rate: float = 0.0
    fault_seed: int = 0

    @property
    def faulted(self) -> bool:
        return self.rate > 0.0

    def fault_config(self) -> Optional[FaultConfig]:
        if not self.faulted:
            return None
        return FaultConfig.mixed(self.rate, seed=self.fault_seed)


@dataclass(frozen=True)
class TournamentGrid:
    """The full declarative cross-evaluation grid."""

    mechanisms: Tuple[str, ...]
    populations: Tuple[PopulationSpec, ...]
    budgets: Tuple[float, ...]
    fault_profiles: Tuple[FaultProfile, ...]
    n_seeds: int = 2
    seed: int = 0
    train_episodes: int = 4
    eval_episodes: int = 3
    tier: str = "quick"
    task: str = "mnist"

    def __post_init__(self):
        if not self.mechanisms:
            raise ValueError("tournament grid needs at least one mechanism")
        if not self.populations or not self.budgets or not self.fault_profiles:
            raise ValueError(
                "tournament grid needs populations, budgets and fault profiles"
            )
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def items(self) -> List[Dict[str, Any]]:
        """Hermetic sweep items, one per grid cell, in deterministic order."""
        from repro.core.builder import BuildConfig

        items: List[Dict[str, Any]] = []
        for mechanism in self.mechanisms:
            for population in self.populations:
                if (
                    population.mechanisms is not None
                    and mechanism not in population.mechanisms
                ):
                    continue
                for base_budget in self.budgets:
                    budget = base_budget * population.budget_scale
                    for fault in self.fault_profiles:
                        for seed_offset in range(self.n_seeds):
                            config = BuildConfig(
                                task_name=self.task,
                                n_nodes=population.n_nodes,
                                budget=budget,
                                seed=self.seed + seed_offset,
                                availability=population.availability,
                                max_rounds=population.max_rounds,
                                faults=fault.fault_config(),
                                population_backend=population.backend,
                            )
                            items.append(
                                sweep_item(
                                    build=config.to_dict(),
                                    mechanism=mechanism,
                                    rng_root=self.seed,
                                    rng_stream=(
                                        f"{mechanism}/{population.name}/"
                                        f"{base_budget}/{fault.name}/"
                                        f"{seed_offset}"
                                    ),
                                    train_episodes=self.train_episodes,
                                    eval_episodes=self.eval_episodes,
                                    tier=self.tier,
                                    key={
                                        "mechanism": mechanism,
                                        "population": population.name,
                                        "n_nodes": population.n_nodes,
                                        "base_budget": base_budget,
                                        "budget": budget,
                                        "fault_profile": fault.name,
                                        "faulted": fault.faulted,
                                        "seed_offset": seed_offset,
                                    },
                                )
                            )
        return items


def smoke_grid(
    mechanisms: Tuple[str, ...] = ("stackelberg", "greedy"),
    seed: int = 0,
) -> TournamentGrid:
    """Tiny seconds-scale grid for tests: 2 mechanisms, N=4, 1 budget, 1 seed.

    Small enough that the fingerprint identity across worker counts runs
    in the test suite, yet it still crosses the full item path (build →
    train → evaluate → leaderboard).
    """
    return TournamentGrid(
        mechanisms=mechanisms,
        populations=(
            PopulationSpec(name="n4", n_nodes=4, max_rounds=25),
        ),
        budgets=(12.0,),
        fault_profiles=(
            FaultProfile(name="clean"),
            FaultProfile(name="mixed25", rate=0.25, fault_seed=11),
        ),
        n_seeds=1,
        seed=seed,
        train_episodes=1,
        eval_episodes=1,
    )


def default_grid(seed: int = 0) -> TournamentGrid:
    """The grid behind the committed ``results/tournament_paper_seed0.json``.

    Every non-oracle registered mechanism crosses the paper's N=5 fleet
    (clean + faulted, two budgets, two seeds) and a clustered N=1000 SoA
    fleet (static mechanisms only — the DRL mechanisms' per-node action
    spaces are exercised at paper scale elsewhere, see docs/scale.md).
    """
    static = ("stackelberg", "fmore", "bara", "ding", "greedy", "fixed_price")
    return TournamentGrid(
        mechanisms=static + ("chiron", "drl_single", "random"),
        populations=(
            PopulationSpec(name="paper_n5", n_nodes=5, max_rounds=60),
            PopulationSpec(
                name="clustered_n1000",
                n_nodes=1000,
                budget_scale=200.0,
                availability=0.95,
                backend="soa",
                n_clusters=8,
                max_rounds=40,
                mechanisms=static,
            ),
        ),
        budgets=(12.0, 20.0),
        fault_profiles=(
            FaultProfile(name="clean"),
            FaultProfile(name="mixed25", rate=0.25, fault_seed=11),
        ),
        n_seeds=2,
        seed=seed,
        train_episodes=4,
        eval_episodes=3,
    )
