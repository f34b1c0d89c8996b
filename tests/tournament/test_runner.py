"""End-to-end tournament: fingerprint invariance, payload, CLI glue."""

from __future__ import annotations

import pytest

from repro.tournament import (
    describe_population,
    render_tournament,
    run_tournament,
    smoke_grid,
)
from repro.tournament.grid import PopulationSpec

pytestmark = pytest.mark.tournament


@pytest.fixture(scope="module")
def smoke_result():
    """One in-process smoke tournament shared across the module's tests."""
    return run_tournament(smoke_grid(seed=0), workers=1)


class TestRunTournament:
    def test_fingerprint_identical_across_worker_counts(self, smoke_result):
        reference = smoke_result.fingerprint()
        for workers in (2, 4):
            result = run_tournament(smoke_grid(seed=0), workers=workers)
            assert result.fingerprint() == reference

    def test_leaderboard_covers_grid_mechanisms(self, smoke_result):
        names = {row.mechanism for row in smoke_result.leaderboard.rows}
        assert names == set(smoke_result.grid.mechanisms)

    def test_payload_shape(self, smoke_result):
        payload = smoke_result.to_payload()
        assert payload["cells"] == 4
        assert payload["fingerprint"] == smoke_result.fingerprint()
        assert payload["leaderboard"]["rows"]

    def test_render_mentions_every_mechanism(self, smoke_result):
        text = render_tournament(smoke_result)
        assert "# Tournament leaderboard" in text
        for mechanism in smoke_result.grid.mechanisms:
            assert mechanism in text
        assert smoke_result.fingerprint() in text


class TestDescribePopulation:
    def test_plain_population(self):
        entry = describe_population(
            PopulationSpec(name="p", n_nodes=6), seed=0
        )
        assert entry["n_nodes"] == 6
        assert "cluster_sizes" not in entry

    def test_clustered_population_reports_tiers(self):
        entry = describe_population(
            PopulationSpec(name="c", n_nodes=40, n_clusters=4), seed=0
        )
        assert sum(entry["cluster_sizes"]) == 40
        assert len(entry["cluster_mean_price_cap"]) == 4


class TestExperimentRegistration:
    def test_tournament_registered(self):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("tournament")
        assert spec.exp_id == "tournament"
