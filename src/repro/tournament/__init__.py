"""``repro.tournament`` — cross-evaluate every registered mechanism.

A declarative grid (:class:`~repro.tournament.grid.TournamentGrid`) of
mechanisms × populations × budgets × fault profiles × seeds is lowered to
hermetic :mod:`repro.parallel` sweep items, executed with journal/resume
support, and aggregated into a ranked
:class:`~repro.tournament.leaderboard.Leaderboard` (JSON + markdown).

Entry points::

    chiron-repro run tournament --workers 4 --journal runs/t.jsonl
    chiron-repro run tournament --scale paper --out results/
    make tournament

The paper-scale run writes the committed leaderboard,
``results/tournament_paper_seed0.json``; see docs/mechanisms.md for its
schema.
"""

from repro.tournament.grid import (
    FaultProfile,
    PopulationSpec,
    TournamentGrid,
    default_grid,
    smoke_grid,
)
from repro.tournament.leaderboard import (
    LEADERBOARD_SCHEMA_VERSION,
    Leaderboard,
    LeaderboardRow,
    build_leaderboard,
)
from repro.tournament.runner import (
    TournamentResult,
    describe_population,
    render_tournament,
    run_tournament,
)

__all__ = [
    "FaultProfile",
    "PopulationSpec",
    "TournamentGrid",
    "default_grid",
    "smoke_grid",
    "LEADERBOARD_SCHEMA_VERSION",
    "Leaderboard",
    "LeaderboardRow",
    "build_leaderboard",
    "TournamentResult",
    "describe_population",
    "render_tournament",
    "run_tournament",
]
