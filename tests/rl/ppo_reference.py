"""The PPO forward, minibatch losses and step built on autograd: the reference.

``Sequential.infer`` runs the policy and value nets without a graph, and
``PPOAgent._update_minibatch`` computes these losses and their gradients
by hand.  The gradcheck in ``test_ppo.py`` checks this graph against
finite differences; ``test_fused_update.py`` requires the hand-written
step to reproduce :func:`reference_step` bit for bit, and
``tests/nn/test_sequential_infer.py`` does the same for
:func:`reference_forward`.  :func:`a2c_reference_step` pins
``A2CAgent._update_minibatch`` the same way (``test_a2c.py``), so a
hand-written A2C step can later be held to it.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.nn.layers import Sequential
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam
from repro.rl.a2c import A2CAgent
from repro.rl.buffer import Batch
from repro.rl.ppo import PPOAgent, _clip_gradients


def reference_forward(net: Sequential, x: np.ndarray) -> np.ndarray:
    """``net``'s autograd forward as a raw array, with no graph recorded."""
    with no_grad():
        return net(Tensor(x)).data


def actor_loss(agent: PPOAgent, mb: Batch) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """Clipped surrogate plus entropy bonus; returns ``(loss, logp, ratio, entropy)``."""
    cfg = agent.config
    adv = Tensor(mb.advantages)
    old_logp = Tensor(mb.log_probs)
    logp = agent.policy.log_prob(mb.obs, mb.actions)
    ratio = (logp - old_logp).exp()
    surr1 = ratio * adv
    surr2 = ratio.clip(1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * adv
    entropy = agent.policy.entropy()
    loss = -(surr1.minimum(surr2)).mean() - cfg.entropy_coef * entropy
    return loss, logp, ratio, entropy


def critic_loss(agent: PPOAgent, mb: Batch) -> Tensor:
    """Mean squared error of the value net against the TD(λ) returns."""
    return MSELoss()(agent.value_net(mb.obs), mb.returns)


def _descend(opt: Adam, loss: Tensor, max_grad_norm: float) -> None:
    """``loss`` → ``backward()`` → gradient clip → one step of ``opt``."""
    opt.zero_grad()
    loss.backward()
    _clip_gradients(opt.parameters, max_grad_norm)
    opt.step()


def reference_step(agent: PPOAgent, mb: Batch) -> Dict[str, float]:
    """One minibatch step: loss → ``backward()`` → gradient clip → Adam."""
    cfg = agent.config
    loss, logp, ratio, entropy = actor_loss(agent, mb)
    _descend(agent.actor_opt, loss, cfg.max_grad_norm)
    critic = critic_loss(agent, mb)
    _descend(agent.critic_opt, critic, cfg.max_grad_norm)

    return {
        "actor_loss": float(loss.item()),
        "critic_loss": float(critic.item()),
        "entropy": float(entropy.item()),
        "approx_kl": float(np.mean(mb.log_probs - logp.data)),
        "clip_fraction": float(
            np.mean(np.abs(ratio.data - 1.0) > cfg.clip_ratio)
        ),
    }


def a2c_reference_step(agent: A2CAgent, mb: Batch) -> Dict[str, float]:
    """One A2C minibatch step: ``−mean(log π · Â) − c·entropy``, then the MSE critic."""
    cfg = agent.config
    logp = agent.policy.log_prob(mb.obs, mb.actions)
    entropy = agent.policy.entropy()
    loss = -(logp * Tensor(mb.advantages)).mean() - cfg.entropy_coef * entropy
    _descend(agent.actor_opt, loss, cfg.max_grad_norm)
    critic = critic_loss(agent, mb)
    _descend(agent.critic_opt, critic, cfg.max_grad_norm)

    return {
        "actor_loss": float(loss.item()),
        "critic_loss": float(critic.item()),
        "entropy": float(entropy.item()),
        "approx_kl": float(np.mean(mb.log_probs - logp.data)),
        "clip_fraction": 0.0,
    }
