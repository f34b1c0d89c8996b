"""Stochastic policies and value networks for continuous control.

:class:`GaussianPolicy` outputs a diagonal Gaussian over an unsquashed
action vector: the mean comes from a tanh MLP, the log standard deviation
is a state-independent trainable parameter (the standard PPO
parameterization).  Downstream code maps raw actions into valid ranges
(sigmoid for a price interval, softmax for an allocation simplex) as a
deterministic part of the environment, so log-probabilities stay exact.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.autograd.tensor import Tensor
from repro.nn.layers import Linear, Sequential, Tanh
from repro.nn.module import Module, require_tensor
from repro.nn.parameter import Parameter
from repro.utils.rng import RNGLike, as_generator, spawn_generators
from repro.utils.validation import check_positive

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_STD_MIN = -5.0
_LOG_STD_MAX = 2.0


def _mlp(sizes: Sequence[int], rng: RNGLike) -> Sequential:
    """Tanh MLP with a linear head, orthogonal-ish (kaiming) init."""
    rngs = spawn_generators(rng, len(sizes) - 1)
    layers = []
    for index, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Linear(n_in, n_out, rng=rngs[index]))
        if index < len(sizes) - 2:
            layers.append(Tanh())
    return Sequential(*layers)


def _fast_forward(net: Sequential, x: np.ndarray) -> np.ndarray:
    """Raw-numpy inference pass through any :class:`Sequential`.

    Delegates to the net's compiled :meth:`Sequential.infer
    <repro.nn.layers.container.Sequential.infer>` fast path — fused
    ``Linear→Tanh`` steps over cached buffers, bit-identical to the
    autograd forward.  Works for every layer type (anything without a
    dedicated raw-numpy ``infer`` falls back to a graph-free generic
    path), so heterogeneous nets no longer raise ``TypeError`` here.
    """
    with _obs.span("nn.fast_forward"):
        return net.infer(x)


class GaussianPolicy(Module):
    """Diagonal Gaussian policy ``π(a|s) = N(μ_θ(s), diag(σ²))``."""

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        hidden: Sequence[int] = (64, 64),
        init_log_std: float = -0.5,
        rng: RNGLike = None,
    ):
        super().__init__()
        check_positive("obs_dim", obs_dim)
        check_positive("act_dim", act_dim)
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        gen = as_generator(rng)
        self.mean_net = _mlp([self.obs_dim, *hidden, self.act_dim], gen)
        self.log_std = Parameter(np.full(self.act_dim, float(init_log_std)))
        self._sample_rng = gen
        # (log_std bytes) -> (clipped log_std, std): σ is fixed between
        # updates, so rollouts recompute clip+exp once per update instead
        # of once per act call.  Keyed on content, not identity — the
        # optimizer mutates ``log_std.data`` in place.
        self._std_cache = None

    def forward(self, obs) -> Tensor:
        """Mean action for a batch of observations ``(n, obs_dim)``."""
        obs = require_tensor(obs)
        if obs.ndim == 1:
            obs = obs.reshape(1, -1)
        return self.mean_net(obs)

    def reseed_sampler(self, seed: int) -> None:
        """Rebase the exploration-noise stream on ``seed``.

        Parallel trajectory collection pins each worker's action noise
        to a per-episode seed so a collected episode is a pure function
        of ``(policy weights, episode seed)`` — independent of how many
        episodes this policy object sampled before.
        """
        self._sample_rng = np.random.default_rng(int(seed))

    def _clamped_log_std(self) -> Tensor:
        return self.log_std.clip(_LOG_STD_MIN, _LOG_STD_MAX)

    def _std_terms(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(clipped log_std, std)`` raw arrays for the act paths.

        Treat both as read-only.
        """
        key = self.log_std.data.tobytes()
        cache = self._std_cache
        if cache is not None and cache[0] == key:
            return cache[1], cache[2]
        log_std = self.log_std.data.clip(_LOG_STD_MIN, _LOG_STD_MAX)
        std = np.exp(log_std)
        self._std_cache = (key, log_std, std)
        return log_std, std

    def act(self, obs: np.ndarray, deterministic: bool = False) -> Tuple[np.ndarray, float]:
        """Sample an action for one observation; returns ``(action, log_prob)``."""
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim == 1:
            obs = obs.reshape(1, -1)
        mean = _fast_forward(self.mean_net, obs)[0]
        log_std, std = self._std_terms()
        if deterministic:
            action = mean.copy()
        else:
            action = mean + std * self._sample_rng.normal(size=self.act_dim)
        log_prob = float(
            -0.5
            * np.sum(((action - mean) / std) ** 2 + 2.0 * log_std + _LOG_2PI)
        )
        return action, log_prob

    def act_batch(
        self, obs: np.ndarray, deterministic: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample actions for ``(M, obs_dim)``; returns ``(actions, log_probs)``.

        Row ``i`` consumes the sample stream exactly as the ``i``-th
        sequential :meth:`act` call would, so an ``M = 1`` batch is
        bit-identical to the single-observation path.
        """
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != self.obs_dim:
            raise ValueError(
                f"expected obs of shape (M, {self.obs_dim}), got {obs.shape}"
            )
        mean = _fast_forward(self.mean_net, obs)
        log_std, std = self._std_terms()
        if deterministic:
            actions = mean.copy()
        else:
            noise = self._sample_rng.normal(size=(obs.shape[0], self.act_dim))
            actions = mean + std * noise
        log_probs = -0.5 * np.sum(
            ((actions - mean) / std) ** 2 + 2.0 * log_std + _LOG_2PI, axis=1
        )
        return actions, log_probs

    def log_prob(self, obs, actions) -> Tensor:
        """Differentiable log π(a|s) for batches (used by the PPO loss)."""
        mean = self.forward(obs)
        actions_t = require_tensor(np.asarray(actions, dtype=np.float64))
        if actions_t.ndim == 1:
            actions_t = actions_t.reshape(1, -1)
        log_std = self._clamped_log_std()
        inv_std = (-log_std).exp()
        z = (actions_t - mean) * inv_std
        per_dim = z * z * (-0.5) - log_std - 0.5 * _LOG_2PI
        return per_dim.sum(axis=1)

    def entropy(self) -> Tensor:
        """Differentiable entropy of the (state-independent-σ) Gaussian."""
        log_std = self._clamped_log_std()
        return (log_std + 0.5 * (1.0 + _LOG_2PI)).sum()

    def std(self) -> np.ndarray:
        """Current standard deviation vector (diagnostic)."""
        return np.exp(np.clip(self.log_std.data, _LOG_STD_MIN, _LOG_STD_MAX))


class ValueNetwork(Module):
    """State-value estimator ``V_φ(s)``."""

    def __init__(
        self,
        obs_dim: int,
        hidden: Sequence[int] = (64, 64),
        rng: RNGLike = None,
    ):
        super().__init__()
        check_positive("obs_dim", obs_dim)
        self.obs_dim = int(obs_dim)
        self.net = _mlp([self.obs_dim, *hidden, 1], rng)

    def forward(self, obs) -> Tensor:
        obs = require_tensor(obs)
        if obs.ndim == 1:
            obs = obs.reshape(1, -1)
        return self.net(obs).reshape(-1)

    def value(self, obs: np.ndarray) -> float:
        """Scalar value of a single observation (raw-numpy fast path).

        Runs the same :meth:`Sequential.infer` kernel as :meth:`values`,
        so a single call is bit-identical to row 0 of an ``M = 1`` batch.
        """
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim == 1:
            obs = obs.reshape(1, -1)
        return float(_fast_forward(self.net, obs)[0, 0])

    def values(self, obs: np.ndarray) -> np.ndarray:
        """Values for an ``(M, obs_dim)`` batch (raw-numpy fast path)."""
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != self.obs_dim:
            raise ValueError(
                f"expected obs of shape (M, {self.obs_dim}), got {obs.shape}"
            )
        return _fast_forward(self.net, obs).reshape(-1)
