"""Degenerate markets: one node, a budget below one payment, every node
faulting, nobody reachable, a payment that overdraws the budget.

With a single node (N=1) the inner agent's allocation simplex has one
vertex and every round either recruits that node or nobody.  With a budget
below one round's payment no round can be paid for, so every episode ends
on its first round having kept, wasted and spent nothing.  When every
recruited node crashes, the fault defenses withhold every payment, so each
episode runs to ``max_rounds`` without spending or learning; without them
the crashed nodes are still paid, and the budget buys nothing.  When
churn takes every node out of every round, nobody can be recruited: each
round is wasted unpaid and the model never leaves its initial accuracy.
When a round's payment would overdraw what is left of the budget, that
round is discarded unpaid and the episode ends on it.
Each mechanism must still train and evaluate with every paper invariant
holding per round.
"""

import numpy as np
import pytest

from repro.core.builder import build_environment
from repro.experiments.mechanisms import make_mechanism
from repro.experiments.runner import evaluate_mechanism, train_mechanism
from repro.faults import FaultConfig
from repro.testing.invariants import InvariantAuditor, auditing

MECHANISMS = ["chiron", "drl_single", "greedy"]
MAX_ROUNDS = 150
ALL_CRASH = FaultConfig(crash_rate=1.0)
NOBODY_AVAILABLE = 1e-9  # churns every node out of every round


def _build(n_nodes, budget, faults=None, fault_defenses=True, availability=1.0):
    return build_environment(
        task_name="mnist",
        n_nodes=n_nodes,
        budget=budget,
        seed=0,
        max_rounds=MAX_ROUNDS,
        availability=availability,
        faults=faults,
        fault_defenses=fault_defenses,
    )


class _LastRoundAuditor(InvariantAuditor):
    """An auditor that also keeps the step result ending each episode."""

    def __init__(self, env):
        super().__init__(env)
        self.last_rounds = []

    def step(self, prices):
        out = super().step(prices)
        result = out[4]["step_result"]
        if result.done:
            self.last_rounds.append(result)
        return out


def _train_and_evaluate_under_audit(
    name, n_nodes, budget, faults=None, fault_defenses=True, availability=1.0
):
    """3 training and 2 evaluation episodes.

    Returns the episodes, the step result that ended each of them, and the
    rounds audited after training and in all.
    """
    build = _build(n_nodes, budget, faults, fault_defenses, availability)
    env = _LastRoundAuditor(build.env)
    mechanism = make_mechanism(name, env, rng=np.random.default_rng(1))
    with auditing():
        history = train_mechanism(env, mechanism, episodes=3)
        trained = env.rounds_audited
        results = evaluate_mechanism(env, mechanism, episodes=2)
    assert len(history) == 3
    assert len(results) == 2
    assert len(env.last_rounds) == 5
    episodes = list(history.episodes) + list(results)
    return episodes, env.last_rounds, trained, env.rounds_audited


@pytest.mark.parametrize("name", MECHANISMS)
def test_trains_and_evaluates_under_audit(name):
    _, _, trained, audited = _train_and_evaluate_under_audit(
        name, n_nodes=1, budget=20.0
    )
    assert trained > 0
    assert audited > trained


@pytest.mark.parametrize("name", MECHANISMS)
def test_budget_below_one_payment_ends_each_episode_on_its_first_round(name):
    episodes, _, trained, audited = _train_and_evaluate_under_audit(
        name, n_nodes=5, budget=1e-3
    )
    assert (trained, audited) == (3, 5)  # one audited round per episode
    for episode in episodes:
        assert episode.rounds == 0
        assert episode.wasted_rounds == 0
        assert episode.budget_spent == 0.0


@pytest.mark.parametrize("name", MECHANISMS)
def test_all_nodes_crash_with_defenses_spends_and_learns_nothing(name):
    episodes, _, trained, audited = _train_and_evaluate_under_audit(
        name, n_nodes=5, budget=20.0, faults=ALL_CRASH
    )
    assert (trained, audited) == (3 * MAX_ROUNDS, 5 * MAX_ROUNDS)
    _, info = _build(5, 20.0).env.reset()
    for episode in episodes:
        assert episode.budget_spent == 0.0
        assert episode.final_accuracy == info["accuracy"]


@pytest.mark.parametrize("name", MECHANISMS)
def test_all_nodes_crash_without_defenses_pays_for_nothing(name):
    episodes, _, _, _ = _train_and_evaluate_under_audit(
        name, n_nodes=5, budget=20.0, faults=ALL_CRASH, fault_defenses=False
    )
    _, info = _build(5, 20.0).env.reset()
    for episode in episodes:
        assert episode.budget_spent > 0.0
        assert episode.final_accuracy == info["accuracy"]


@pytest.mark.parametrize("name", MECHANISMS)
def test_nobody_reachable_runs_each_episode_to_max_rounds_unpaid(name):
    episodes, _, trained, audited = _train_and_evaluate_under_audit(
        name, n_nodes=5, budget=20.0, availability=NOBODY_AVAILABLE
    )
    assert (trained, audited) == (3 * MAX_ROUNDS, 5 * MAX_ROUNDS)
    _, info = _build(5, 20.0).env.reset()
    for episode in episodes:
        assert episode.rounds == 0
        # The runner counts a dropped round as wasted unless it ends the episode.
        assert episode.wasted_rounds == MAX_ROUNDS - 1
        assert episode.budget_spent == 0.0
        assert episode.final_accuracy == info["accuracy"]


@pytest.mark.parametrize("name", MECHANISMS)
def test_budget_overdraw_ends_each_episode_on_a_discarded_round(name):
    budget = 20.0
    episodes, last_rounds, _, _ = _train_and_evaluate_under_audit(
        name, n_nodes=5, budget=budget
    )
    for episode, last in zip(episodes, last_rounds):
        assert episode.rounds >= 1
        assert episode.wasted_rounds == 0
        assert 0.0 < episode.budget_spent < budget
        assert not last.round_kept
        assert last.done and not last.truncated
        assert last.round_index == episode.rounds
        assert last.remaining_budget == budget - episode.budget_spent
