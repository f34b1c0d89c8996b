"""BARA-style online Bayesian budget allocation across rounds.

The long-horizon question — *how much of the remaining budget should this
round spend?* — is treated as a Bayesian bandit over a discrete set of
budget *fractions* (the arms).  Each arm keeps a conjugate Normal
posterior over the per-round accuracy gain it yields; rounds are priced by
Thompson sampling during training and by the posterior mean at evaluation
time.  Modeled after Yang et al., "BARA: Efficient Incentive Mechanism
with Online Reward Budget Allocation in Cross-Silo Federated Learning"
(arXiv:2305.05221; see PAPERS.md).

The chosen arm's budget is turned into prices by bisecting a *service
level* ``s ∈ [0, 1]`` that interpolates every node's price between its
participation floor and its saturation cap; the expected spend of the
fleet's best response (``population.respond``) is monotone in ``s``, so
the smallest level whose spend fits the arm's budget is well defined.

Posterior state persists across episodes (the whole point of *online*
allocation); determinism under a fixed RNG seed is part of the contract
(``tests/zoo/test_bara.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.env import EdgeLearningEnv, StepResult
from repro.core.mechanism import IncentiveMechanism, Observation
from repro.utils.rng import RNGLike, as_generator

#: See :data:`repro.zoo.stackelberg.FLOOR_LIFT`.
FLOOR_LIFT = 1.0 + 1e-9


class NormalPosterior:
    """Conjugate Normal posterior over a mean with known observation noise.

    Prior ``N(μ0, σ0²)``; each observation has variance ``σ_obs²``.  The
    posterior after ``n`` observations summing to ``Σx`` has precision
    ``1/σ0² + n/σ_obs²`` — variance strictly decreases with every update
    and the mean moves toward the sample mean.
    """

    __slots__ = ("prior_mean", "prior_variance", "observation_variance",
                 "count", "total")

    def __init__(
        self,
        prior_mean: float = 0.0,
        prior_variance: float = 1.0,
        observation_variance: float = 0.01,
    ):
        if prior_variance <= 0.0 or observation_variance <= 0.0:
            raise ValueError("variances must be positive")
        self.prior_mean = float(prior_mean)
        self.prior_variance = float(prior_variance)
        self.observation_variance = float(observation_variance)
        self.count = 0
        self.total = 0.0

    @property
    def precision(self) -> float:
        return (
            1.0 / self.prior_variance
            + self.count / self.observation_variance
        )

    @property
    def variance(self) -> float:
        return 1.0 / self.precision

    @property
    def mean(self) -> float:
        return (
            self.prior_mean / self.prior_variance
            + self.total / self.observation_variance
        ) / self.precision

    def update(self, observation: float) -> None:
        self.count += 1
        self.total += float(observation)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.normal(self.mean, sqrt(self.variance)))


@dataclass(frozen=True)
class BARAConfig:
    """Arm grid and reward-model knobs."""

    fractions: Tuple[float, ...] = (0.05, 0.10, 0.20, 0.35)
    prior_mean: float = 0.0
    prior_variance: float = 1.0
    observation_variance: float = 0.01
    bisection_iterations: int = 60


class BARAMechanism(IncentiveMechanism):
    """Thompson sampling over per-round budget fractions."""

    name = "bara"

    def __init__(
        self,
        env: EdgeLearningEnv,
        config: Optional[BARAConfig] = None,
        rng: RNGLike = None,
    ):
        super().__init__(env)
        self.config = config or BARAConfig()
        if not self.config.fractions or any(
            not 0.0 < f <= 1.0 for f in self.config.fractions
        ):
            raise ValueError(
                f"fractions must lie in (0, 1], got {self.config.fractions}"
            )
        self._rng = as_generator(rng)
        self.posteriors = [
            NormalPosterior(
                self.config.prior_mean,
                self.config.prior_variance,
                self.config.observation_variance,
            )
            for _ in self.config.fractions
        ]
        self.training = True
        sigma = env.config.local_epochs
        floors = env.population.price_floors(sigma) * FLOOR_LIFT
        self._floors = floors
        self._caps = np.maximum(env.population.price_caps(sigma), floors)
        self._local_epochs = sigma
        self._prev_accuracy = 0.0
        self._arm: Optional[int] = None

    # -- train/eval switches (evaluate_mechanism drives these) ---------- #
    def train_mode(self) -> None:
        self.training = True

    def eval_mode(self) -> None:
        self.training = False

    # -- pricing -------------------------------------------------------- #
    def _prices_at_level(self, level: float) -> np.ndarray:
        return self._floors + level * (self._caps - self._floors)

    def _expected_spend(self, prices: np.ndarray) -> float:
        batch = self.env.population.respond(prices, self._local_epochs)
        return batch.total_payment()

    def _prices_for_budget(self, budget: float) -> np.ndarray:
        """Largest service level whose expected spend fits ``budget``."""
        if budget <= 0.0:
            return np.zeros_like(self._floors)
        lo, hi = 0.0, 1.0
        if self._expected_spend(self._prices_at_level(lo)) > budget:
            # Even the floor-level fleet costs more than this round's
            # budget: post nothing (the arm's posterior learns the cost).
            return np.zeros_like(self._floors)
        if self._expected_spend(self._prices_at_level(hi)) <= budget:
            return self._prices_at_level(hi)
        for _ in range(self.config.bisection_iterations):
            mid = 0.5 * (lo + hi)
            if self._expected_spend(self._prices_at_level(mid)) > budget:
                hi = mid
            else:
                lo = mid
        return self._prices_at_level(lo)

    # -- mechanism lifecycle -------------------------------------------- #
    def begin_episode(self, obs: Observation) -> None:
        self._prev_accuracy = self.env.accuracy
        self._arm = None

    def propose_prices(self, obs: Observation) -> np.ndarray:
        if self.training:
            draws = [p.sample(self._rng) for p in self.posteriors]
        else:
            draws = [p.mean for p in self.posteriors]
        arm = int(np.argmax(draws))
        self._arm = arm
        budget = self.config.fractions[arm] * obs.remaining_budget
        prices = self._prices_for_budget(budget)
        if _obs.enabled():
            _obs.counter("zoo.bara.rounds").inc()
            _obs.gauge("zoo.bara.arm").set(arm)
            _obs.gauge("zoo.bara.posterior_variance").set(
                self.posteriors[arm].variance
            )
        return prices

    def observe(self, prices: np.ndarray, result: StepResult) -> None:
        if self._arm is not None and self.training:
            self.posteriors[self._arm].update(
                result.accuracy - self._prev_accuracy
            )
        self._prev_accuracy = result.accuracy

    def end_episode(self) -> Dict[str, float]:
        return {
            f"bara_arm{i}_mean": post.mean
            for i, post in enumerate(self.posteriors)
        } | {
            f"bara_arm{i}_var": post.variance
            for i, post in enumerate(self.posteriors)
        }
