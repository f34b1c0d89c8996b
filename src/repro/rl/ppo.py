"""Proximal Policy Optimization (clip variant) for one agent.

Follows the paper's training setup (§VI-A): actor-critic with learning
rate 3e-5 decayed by 5% every 20 episodes, reward discount γ = 0.95, and
an update batch equal to the episode length (the buffer is consumed once
per episode when the budget is exhausted, Algorithm 1 lines 17-27; with
``min_update_batch`` set, once enough episodes have accumulated).
:meth:`PPOAgent.begin_collect` / :meth:`PPOAgent.take_collected` run a
seeded collect-only episode and hand its transitions back as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import obs as _obs
from repro.rl.buffer import Batch, RolloutBuffer
from repro.rl.policy import (
    _LOG_2PI,
    _LOG_STD_MAX,
    _LOG_STD_MIN,
    GaussianPolicy,
    ValueNetwork,
)
from repro.rl.running_stat import RunningMeanStd
from repro.nn.optim import Adam, ExponentialLR
from repro.utils.rng import RNGLike, as_generator, spawn_generators
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class PPOConfig:
    """Hyper-parameters; defaults follow the paper's §VI-A."""

    hidden: tuple = (64, 64)
    actor_lr: float = 3e-5
    critic_lr: float = 3e-5
    lr_decay: float = 0.95  # multiplied in every `lr_decay_every` episodes
    lr_decay_every: int = 20
    gamma: float = 0.95
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    update_epochs: int = 10  # M in Algorithm 1
    minibatch_size: Optional[int] = None  # None -> whole episode, per paper
    #: minimum buffered transitions before an episode-end update fires;
    #: None reproduces the paper's strict update-every-episode, a value like
    #: 64 accumulates several short episodes into one statistically stable
    #: PPO batch (recommended when episodes are only a handful of rounds).
    min_update_batch: Optional[int] = None
    entropy_coef: float = 1e-3
    max_grad_norm: float = 0.5
    init_log_std: float = -0.5
    normalize_obs: bool = True
    normalize_advantages: bool = True

    def __post_init__(self):
        check_positive("actor_lr", self.actor_lr)
        check_positive("critic_lr", self.critic_lr)
        check_in_range("lr_decay", self.lr_decay, 0.0, 1.0, inclusive=(False, True))
        check_positive("lr_decay_every", self.lr_decay_every)
        check_in_range("gamma", self.gamma, 0.0, 1.0)
        check_in_range("gae_lambda", self.gae_lambda, 0.0, 1.0)
        check_positive("clip_ratio", self.clip_ratio)
        check_positive("update_epochs", self.update_epochs)
        check_positive("entropy_coef", self.entropy_coef, strict=False)

    def to_dict(self) -> dict:
        """Plain-dict form (see :mod:`repro.utils.config`)."""
        from repro.utils.config import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PPOConfig":
        """Reconstruct from :meth:`to_dict` output (registry entries)."""
        from repro.utils.config import config_from_dict

        return config_from_dict(cls, data)


def _explained_variance(predictions: np.ndarray, targets: np.ndarray) -> float:
    """``1 − Var[target − pred] / Var[target]`` — 1 is a perfect critic."""
    target_var = float(np.var(targets))
    if target_var < 1e-12:
        return 0.0
    return float(1.0 - np.var(targets - predictions) / target_var)


def _clip_gradients(parameters, max_norm: float) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm.

    The squared norms are added left to right with ``+=``: the builtin
    ``sum`` of floats is compensated from Python 3.12 on, which would move
    the last bit of the norm, and so the clip scale, with the interpreter.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = 0.0
    for g in grads:
        total += float((g**2).sum())
    total = float(np.sqrt(total))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


def _mlp_backward(linears, inputs, grad: np.ndarray) -> None:
    """Set every ``Linear`` weight and bias ``.grad`` for output gradient ``grad``.

    ``inputs`` holds each layer's input as :meth:`Sequential.infer` records
    it. Repeats the autograd closures of ``x @ W.T + b`` and ``tanh``; the
    gradient of the network input is never formed.
    """
    for index in range(len(linears) - 1, -1, -1):
        linear = linears[index]
        x = inputs[index]
        linear.bias.grad = grad.sum(axis=(0,))
        linear.weight.grad = (x.T @ grad).T.copy()
        if index:
            grad = grad @ linear.weight.data
            grad = grad * (1.0 - x**2)


class PPOAgent:
    """One PPO actor-critic with an episode buffer (an Algorithm-1 agent)."""

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        config: Optional[PPOConfig] = None,
        rng: RNGLike = None,
    ):
        self.config = config or PPOConfig()
        gen = as_generator(rng)
        policy_rng, value_rng, shuffle_rng = spawn_generators(gen, 3)
        cfg = self.config
        self.policy = GaussianPolicy(
            obs_dim,
            act_dim,
            hidden=cfg.hidden,
            init_log_std=cfg.init_log_std,
            rng=policy_rng,
        )
        self.value_net = ValueNetwork(obs_dim, hidden=cfg.hidden, rng=value_rng)
        self.buffer = RolloutBuffer(gamma=cfg.gamma, gae_lambda=cfg.gae_lambda)
        self.actor_opt = Adam(self.policy.parameters(), lr=cfg.actor_lr)
        self.critic_opt = Adam(self.value_net.parameters(), lr=cfg.critic_lr)
        self._actor_sched = ExponentialLR(
            self.actor_opt, cfg.lr_decay, cfg.lr_decay_every
        )
        self._critic_sched = ExponentialLR(
            self.critic_opt, cfg.lr_decay, cfg.lr_decay_every
        )
        self.obs_stat = RunningMeanStd((obs_dim,)) if cfg.normalize_obs else None
        self._shuffle_rng = shuffle_rng
        self.episodes_seen = 0
        # Armed by begin_collect(): raw (pre-normalization) observations
        # captured alongside the buffered transitions.
        self._collect_raw: Optional[list] = None

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def _normalize(self, obs: np.ndarray) -> np.ndarray:
        if self.obs_stat is None:
            return np.asarray(obs, dtype=np.float64)
        return self.obs_stat.normalize(obs)

    def act(
        self,
        obs: np.ndarray,
        deterministic: bool = False,
        compute_values: bool = True,
    ):
        """Sample ``(action, log_prob, value)`` for one raw observation.

        ``compute_values=False`` skips the critic forward and returns
        ``value = None`` — for evaluation rollouts, where the value is
        never consumed (it only feeds GAE during training).  The policy
        sample stream is unaffected.
        """
        with _obs.span("ppo.act"):
            obs = np.asarray(obs, dtype=np.float64)
            if self.obs_stat is not None and not deterministic:
                # Deterministic (evaluation) calls must not pollute the
                # normalizer, and repeated eval calls must be reproducible.
                self.obs_stat.update(obs)
            norm = self._normalize(obs)
            action, log_prob = self.policy.act(norm, deterministic=deterministic)
            value = self.value_net.value(norm) if compute_values else None
            return action, log_prob, value

    def act_batch(
        self,
        obs: np.ndarray,
        deterministic: bool = False,
        compute_values: bool = True,
    ):
        """Batched :meth:`act` over ``(M, obs_dim)`` observations.

        Returns ``(actions (M, act_dim), log_probs (M,), values (M,),
        norm_obs (M, obs_dim))``.  An ``M = 1`` batch reproduces
        :meth:`act` bit for bit.

        ``compute_values=False`` skips the critic forward (``values`` is
        ``None``); see :meth:`act`.
        """
        with _obs.span("ppo.act_batch"):
            obs = np.asarray(obs, dtype=np.float64)
            if self.obs_stat is not None and not deterministic:
                self.obs_stat.update(obs)
            norm = self._normalize(obs)
            actions, log_probs = self.policy.act_batch(
                norm, deterministic=deterministic
            )
            values = self.value_net.values(norm) if compute_values else None
            return actions, log_probs, values, norm

    def store(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        value: float,
        log_prob: float,
        done: bool,
    ) -> None:
        """Record a transition (observation stored *normalized*)."""
        if self._collect_raw is not None:
            self._collect_raw.append(
                np.array(obs, dtype=np.float64, copy=True)
            )
        self.buffer.push(self._normalize(obs), action, reward, value, log_prob, done)

    # ------------------------------------------------------------------ #
    # seeded collect-only episodes
    # ------------------------------------------------------------------ #
    def begin_collect(self, sample_seed: int) -> None:
        """Enter collect-only mode for one seeded episode.

        Rebases the exploration-noise stream on ``sample_seed`` and
        empties the rollout buffer, so the trajectory this agent collects
        is a pure function of ``(weights, obs-normalizer state,
        sample_seed, env seed)``.
        """
        self.policy.reseed_sampler(sample_seed)
        self.buffer.clear()
        self._collect_raw = []

    def take_collected(self) -> dict:
        """Flat arrays of the collected episode, leaving collect mode.

        The payload is :meth:`RolloutBuffer.columns` plus a ``raw_obs``
        matrix of the pre-normalization observations in step order.
        """
        if self._collect_raw is None:
            raise RuntimeError("take_collected() outside begin_collect()")
        state = self.buffer.columns()
        if self._collect_raw:
            state["raw_obs"] = np.stack(self._collect_raw)
        else:
            state["raw_obs"] = np.zeros((0, self.policy.obs_dim))
        self.buffer.clear()
        self._collect_raw = None
        return state

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def ready_to_update(self) -> bool:
        """Whether the buffer holds enough transitions for a stable update."""
        threshold = self.config.min_update_batch or 1
        return len(self.buffer) >= threshold

    def update(self, last_value: float = 0.0) -> Dict[str, float]:
        """Consume the buffer with PPO-clip; returns diagnostics.

        Called once per episode (budget exhaustion), per Algorithm 1 — or,
        with ``min_update_batch`` set, once enough episodes accumulated.
        """
        if len(self.buffer) == 0:
            raise ValueError("update() called with an empty buffer")
        cfg = self.config
        with _obs.span("ppo.update"):
            batch = self.buffer.compute(last_value=last_value)
            self.buffer.clear()

            advantages = batch.advantages
            if cfg.normalize_advantages and len(batch) > 1:
                advantages = (advantages - advantages.mean()) / (
                    advantages.std() + 1e-8
                )
            batch = Batch(
                obs=batch.obs,
                actions=batch.actions,
                log_probs=batch.log_probs,
                advantages=advantages,
                returns=batch.returns,
            )

            mb_size = cfg.minibatch_size or len(batch)
            keys = (
                "actor_loss",
                "critic_loss",
                "entropy",
                "approx_kl",
                "clip_fraction",
            )
            stats = {key: 0.0 for key in keys}
            updates = 0
            for _epoch in range(cfg.update_epochs):
                for mb in RolloutBuffer.minibatches(
                    batch, mb_size, self._shuffle_rng
                ):
                    stats_mb = self._update_minibatch(mb)
                    for key in keys:
                        stats[key] += stats_mb[key]
                    updates += 1

            self.episodes_seen += 1
            self._actor_sched.step()
            self._critic_sched.step()
            n = max(updates, 1)
            result = {key: stats[key] / n for key in keys}
            result["actor_lr"] = self.actor_opt.lr
            result["batch_size"] = float(len(batch))
            result["explained_variance"] = _explained_variance(
                self.value_net.values(batch.obs), batch.returns
            )
        if _obs.enabled():
            _obs.counter("ppo.updates").inc()
            _obs.histogram("ppo.update.batch_size").observe(float(len(batch)))
            for key in keys:
                _obs.ewma(f"ppo.{key}").update(result[key])
        return result

    def _update_minibatch(self, mb: Batch) -> Dict[str, float]:
        """One actor and one critic step on a minibatch, graph-free.

        Computes the loss of :meth:`GaussianPolicy.log_prob`,
        :meth:`GaussianPolicy.entropy`, the clipped surrogate and
        :class:`MSELoss`, and its gradient by hand. Every forward value and
        gradient repeats the ufuncs and operand order of the autograd ops
        it replaces, so parameters, optimizer moments and statistics are
        bit-identical to ``loss.backward()`` on that graph (gated by
        ``tests/rl/test_fused_update.py``).
        """
        cfg = self.config
        n = len(mb)
        adv = mb.advantages
        low, high = 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio

        # Actor: PPO clipped surrogate + entropy bonus.
        policy = self.policy
        linears = list(policy.mean_net)[::2]
        inputs = []
        mean = policy.mean_net.infer(mb.obs, inputs)
        raw_log_std = policy.log_std.data
        in_band = (raw_log_std >= _LOG_STD_MIN) & (raw_log_std <= _LOG_STD_MAX)
        log_std = np.clip(raw_log_std, _LOG_STD_MIN, _LOG_STD_MAX)
        inv_std = np.exp(-log_std)
        diff = mb.actions - mean
        z = diff * inv_std
        logp = (z * z * (-0.5) - log_std - 0.5 * _LOG_2PI).sum(axis=1)
        ratio = np.exp(logp - mb.log_probs)
        surr1 = ratio * adv
        surr2 = np.clip(ratio, low, high) * adv
        take1 = surr1 <= surr2
        objective = np.where(take1, surr1, surr2).sum() * (1.0 / n)
        entropy = (log_std + 0.5 * (1.0 + _LOG_2PI)).sum()
        actor_loss = -objective - entropy * cfg.entropy_coef

        # d(actor_loss): mean → minimum → surrogates → ratio → log π.
        g_min = np.full(n, -(1.0 / n))
        in_clip = (ratio >= low) & (ratio <= high)
        g_ratio = g_min * take1 * adv + g_min * ~take1 * adv * in_clip
        g_per_dim = np.repeat((g_ratio * ratio)[:, None], policy.act_dim, axis=1)
        g_z = g_per_dim * (-0.5) * z
        g_z += g_z  # z * z: two equal terms
        g_inv_std = (g_z * diff).sum(axis=(0,)) * inv_std
        g_log_std = -g_per_dim.sum(axis=(0,)) + -g_inv_std
        g_entropy = np.full(policy.act_dim, -1.0 * cfg.entropy_coef)
        policy.log_std.grad = g_log_std * in_band + g_entropy * in_band
        _mlp_backward(linears, inputs, -(g_z * inv_std))
        _clip_gradients(self.actor_opt.parameters, cfg.max_grad_norm)
        self.actor_opt.step()

        # Critic: TD(λ)-return regression (Algorithm 1 lines 19-20).
        linears = list(self.value_net.net)[::2]
        inputs = []
        values = self.value_net.net.infer(mb.obs, inputs)
        err = values.reshape(-1) - mb.returns
        critic_loss = (err * err).sum() * (1.0 / n)
        g_err = np.full(n, 1.0 / n) * err
        g_err += g_err  # err * err: two equal terms
        _mlp_backward(linears, inputs, g_err.reshape(n, 1))
        _clip_gradients(self.critic_opt.parameters, cfg.max_grad_norm)
        self.critic_opt.step()

        # Standard PPO health diagnostics: a one-sample KL estimate and the
        # fraction of ratios that hit the clip boundary.
        approx_kl = float(np.mean(mb.log_probs - logp))
        clip_fraction = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_ratio))
        return {
            "actor_loss": float(actor_loss),
            "critic_loss": float(critic_loss),
            "entropy": float(entropy),
            "approx_kl": approx_kl,
            "clip_fraction": clip_fraction,
        }
