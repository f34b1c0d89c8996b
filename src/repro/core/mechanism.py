"""The mechanism interface: how a pricing strategy plugs into the MDP.

Chiron and every baseline implement :class:`IncentiveMechanism`; the
experiment runner (:mod:`repro.experiments.runner`) drives any mechanism
through identical episodes, which keeps comparisons honest.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.core.env import EdgeLearningEnv, StepResult


class Observation:
    """What a mechanism sees before pricing round ``k``."""

    __slots__ = ("state", "remaining_budget", "round_index")

    def __init__(self, state: np.ndarray, remaining_budget: float, round_index: int):
        self.state = np.asarray(state, dtype=np.float64)
        self.remaining_budget = float(remaining_budget)
        self.round_index = int(round_index)


class IncentiveMechanism(abc.ABC):
    """A pricing strategy for the parameter server.

    Lifecycle per episode::

        mechanism.begin_episode(obs0)
        while not done:
            prices = mechanism.propose_prices(obs)
            result = env.step(prices)
            mechanism.observe(prices, result)
        diagnostics = mechanism.end_episode()
    """

    #: short identifier used in result tables
    name: str = "mechanism"

    def __init__(self, env: EdgeLearningEnv):
        self.env = env

    @abc.abstractmethod
    def propose_prices(self, obs: Observation) -> np.ndarray:
        """Per-node price vector for the coming round."""

    def begin_episode(self, obs: Observation) -> None:
        """Hook called right after ``env.reset()``."""

    def observe(self, prices: np.ndarray, result: StepResult) -> None:
        """Hook called after every ``env.step``."""

    def end_episode(self) -> Dict[str, float]:
        """Hook called when the episode terminates; returns diagnostics."""
        return {}

    # ------------------------------------------------------------------ #
    # shared helpers for action scaling
    # ------------------------------------------------------------------ #
    def total_price_bounds(self) -> tuple:
        """Sensible range for the round's total price.

        Lower bound: half the sum of participation floors (exploring below
        attracts almost nobody).  Upper bound: the sum of price caps (above
        it every node already runs at ζ_max, extra spend is pure waste).
        """
        return (0.5 * self.env.min_total_price, self.env.max_total_price)

    def per_node_price_bounds(self) -> tuple:
        """Elementwise (floors, caps) price vectors."""
        return (0.5 * self.env.price_floors, self.env.price_caps)


class StaticMechanism(IncentiveMechanism):
    """Convenience base for mechanisms with no learning state."""

    def end_episode(self) -> Dict[str, float]:
        return {}
