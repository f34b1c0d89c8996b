"""A fleet of one node (N=1), a degenerate edge of the paper's market.

With a single node the inner agent's allocation simplex has one vertex and
every round either recruits that node or nobody.  Each mechanism must
still train and evaluate with every paper invariant holding per round.
"""

import numpy as np
import pytest

from repro.core.builder import build_environment
from repro.experiments.mechanisms import make_mechanism
from repro.experiments.runner import evaluate_mechanism, train_mechanism
from repro.testing.invariants import InvariantAuditor, auditing


@pytest.mark.parametrize("name", ["chiron", "drl_single", "greedy"])
def test_trains_and_evaluates_under_audit(name):
    build = build_environment(
        task_name="mnist", n_nodes=1, budget=20.0, seed=0, max_rounds=150
    )
    env = InvariantAuditor(build.env)
    mechanism = make_mechanism(name, env, rng=np.random.default_rng(1))
    with auditing():
        history = train_mechanism(env, mechanism, episodes=3)
        trained = env.rounds_audited
        results = evaluate_mechanism(env, mechanism, episodes=2)
    assert len(history) == 3
    assert len(results) == 2
    assert trained > 0
    assert env.rounds_audited > trained
