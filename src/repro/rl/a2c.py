"""Advantage actor-critic (A2C): the unclipped ancestor of PPO.

Identical plumbing to :class:`~repro.rl.ppo.PPOAgent` — same Gaussian
policy, value network, GAE buffer and schedules — but the actor step is a
single-epoch vanilla policy gradient ``−E[log π(a|s) · Â]`` with no ratio
clipping.  Exists to ablate the paper's choice of PPO: the clipped
surrogate is what keeps multi-epoch updates from destroying the policy on
the small, noisy batches this problem produces.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.losses import MSELoss
from repro.rl.buffer import Batch
from repro.rl.ppo import PPOAgent, PPOConfig, _clip_gradients
from repro.utils.rng import RNGLike


class A2CAgent(PPOAgent):
    """PPO-compatible agent with an unclipped single-epoch actor update."""

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        config: Optional[PPOConfig] = None,
        rng: RNGLike = None,
    ):
        config = config or PPOConfig()
        # A2C is strictly on-policy: one pass over the batch per update.
        config = replace(config, update_epochs=1)
        super().__init__(obs_dim, act_dim, config=config, rng=rng)
        self._mse = MSELoss()

    def _update_minibatch(self, mb: Batch) -> Dict[str, float]:
        cfg = self.config
        adv = Tensor(mb.advantages)

        logp = self.policy.log_prob(mb.obs, mb.actions)
        entropy = self.policy.entropy()
        actor_loss = -(logp * adv).mean() - cfg.entropy_coef * entropy
        self.actor_opt.zero_grad()
        actor_loss.backward()
        _clip_gradients(self.actor_opt.parameters, cfg.max_grad_norm)
        self.actor_opt.step()

        values = self.value_net(mb.obs)
        critic_loss = self._mse(values, mb.returns)
        self.critic_opt.zero_grad()
        critic_loss.backward()
        _clip_gradients(self.critic_opt.parameters, cfg.max_grad_norm)
        self.critic_opt.step()

        approx_kl = float(np.mean(mb.log_probs - logp.data))
        return {
            "actor_loss": float(actor_loss.item()),
            "critic_loss": float(critic_loss.item()),
            "entropy": float(entropy.item()),
            "approx_kl": approx_kl,
            "clip_fraction": 0.0,  # nothing is clipped in A2C
        }
