"""The supported surfaces emit zero DeprecationWarnings.

Building environments, running episodes through every zoo mechanism,
lowering a tournament grid, and the baselines' planner paths must all
stay warning-free — a regression here means new code reached for a
deprecated surface (of this package or of a dependency).
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.builder import BuildConfig
from repro.core.mechanism import Observation
from repro.experiments.mechanisms import available_mechanisms, make_mechanism


def _run_episode(env, mechanism, max_rounds=6):
    state, _ = env.reset(seed=5)
    obs = Observation(state, env.ledger.remaining, env.round_index)
    mechanism.begin_episode(obs)
    for _ in range(max_rounds):
        if env.done:
            break
        prices = mechanism.propose_prices(obs)
        _, _, _, _, info = env.step(prices)
        result = info["step_result"]
        mechanism.observe(prices, result)
        obs = Observation(
            result.state, result.remaining_budget, result.round_index
        )
    mechanism.end_episode()


@pytest.mark.parametrize("name", sorted(available_mechanisms()))
def test_mechanism_episode_warning_free(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        env = BuildConfig(
            n_nodes=4, budget=12.0, seed=9, max_rounds=10
        ).build().env
        mechanism = make_mechanism(name, env, rng=3, tier="quick")
        _run_episode(env, mechanism)


def test_tournament_grid_lowering_warning_free():
    from repro.tournament import smoke_grid

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        items = smoke_grid().items()
        assert items
