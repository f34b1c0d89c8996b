"""The "DRL-based" baseline: one flat, myopic PPO agent.

Models Zhan & Zhang (INFOCOM 2020) as the paper describes them: a standard
PPO agent that prices every node *directly* (an ``N``-dimensional action)
and "only derive[s] the optimal solution of single round" — captured here
by a zero discount factor, so credit never flows across rounds, and by
omitting budget/round-index long-term planning pressure from its learning
signal (it still sees the same state vector; only its objective is
myopic).

With small ``N`` this learns a reasonable per-round policy; with
``N = 100`` its action space is 100-dimensional and a single agent fails
to converge — reproducing Fig. 7(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.core.env import EdgeLearningEnv, StepResult
from repro.core.mechanism import IncentiveMechanism, Observation
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.utils.numerics import sigmoid as _sigmoid
from repro.utils.rng import RNGLike


@dataclass(frozen=True)
class DRLSingleConfig:
    """Configuration of the flat baseline agent."""

    ppo: PPOConfig = field(default_factory=PPOConfig)
    myopic: bool = True  # force γ = 0 (single-round optimization)


class DRLSingleAgent(IncentiveMechanism):
    """Flat PPO over per-node prices with a myopic objective."""

    name = "drl_single"

    def __init__(
        self,
        env: EdgeLearningEnv,
        config: Optional[DRLSingleConfig] = None,
        rng: RNGLike = None,
    ):
        super().__init__(env)
        self.config = config or DRLSingleConfig()
        ppo_cfg = self.config.ppo
        if self.config.myopic:
            # γ = 0: the advantage of an action is its own round's reward.
            ppo_cfg = replace(ppo_cfg, gamma=0.0, gae_lambda=0.0)
        self.agent = PPOAgent(
            obs_dim=env.state_dim, act_dim=env.n_nodes, config=ppo_cfg, rng=rng
        )
        floors, caps = self.per_node_price_bounds()
        self._low = floors
        self._high = caps
        self.training = True
        self._pending: Optional[dict] = None
        self._episode_reward = 0.0

    def propose_prices(self, obs: Observation) -> np.ndarray:
        action, logp, value = self.agent.act(
            obs.state, deterministic=not self.training
        )
        # Same log-scale squash as Chiron so the comparison is apples to
        # apples: prices get uniform relative resolution per node.
        prices = self._low * (self._high / self._low) ** _sigmoid(action)
        self._pending = {
            "obs": obs.state,
            "action": action,
            "logp": logp,
            "value": value,
        }
        return prices

    def begin_episode(self, obs: Observation) -> None:
        self._pending = None
        self._episode_reward = 0.0

    def observe(self, prices: np.ndarray, result: StepResult) -> None:
        if self._pending is None:
            raise RuntimeError("observe() without a preceding propose_prices()")
        pend = self._pending
        self._pending = None
        self._episode_reward += result.reward_exterior
        if not self.training:
            return
        terminal = result.done
        self.agent.store(
            pend["obs"],
            pend["action"],
            result.reward_exterior,
            pend["value"],
            pend["logp"],
            done=terminal,
        )

    def end_episode(self) -> Dict[str, float]:
        diagnostics = {"episode_reward_exterior": self._episode_reward}
        if self.ready_to_update():
            diagnostics.update(self.agent.update())
        return diagnostics

    def ready_to_update(self) -> bool:
        """Whether the buffered transitions warrant a PPO update now."""
        return (
            self.training
            and len(self.agent.buffer) > 0
            and self.agent.ready_to_update()
        )

    def train_mode(self) -> "DRLSingleAgent":
        self.training = True
        return self

    def eval_mode(self) -> "DRLSingleAgent":
        self.training = False
        return self
