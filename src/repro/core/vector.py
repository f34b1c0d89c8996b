"""Vectorized environment: M independent edge-learning replicas.

:class:`VectorizedEdgeLearningEnv` steps a batch of independently seeded
:class:`~repro.core.env.EdgeLearningEnv` replicas through the
Gymnasium-style protocol, returning stacked ``(M, obs_dim)`` observations
and ``(M,)`` reward/termination arrays.  Replicas are plain Python
environments stepped in sequence — the vectorization win comes from
batching the *agent* side (one policy forward for all M observations, see
:meth:`repro.rl.PPOAgent.act_batch`), which dominates sequential rollout
cost.

Replica 0 is always the environment the vector env was built from, so an
``M = 1`` vector env reproduces the sequential path bit for bit; replicas
1..M-1 are :meth:`~repro.core.env.EdgeLearningEnv.spawn`-ed with
decorrelated seeds.

Episodes end at different times across replicas, so :meth:`step` takes an
``active`` mask: finished replicas are skipped (their row keeps the last
observation, reward 0, and ``info`` of ``None``) until
:meth:`reset_at` restarts them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.env import EdgeLearningEnv
from repro.population.api import NodeResponseBatch


class VectorizedEdgeLearningEnv:
    """A batch of M independently seeded :class:`EdgeLearningEnv` replicas."""

    def __init__(self, envs: Sequence[EdgeLearningEnv]):
        envs = list(envs)
        if not envs:
            raise ValueError("need at least one environment replica")
        first = envs[0]
        for env in envs[1:]:
            if env.n_nodes != first.n_nodes or env.state_dim != first.state_dim:
                raise ValueError(
                    "all replicas must share fleet size and state dimension"
                )
        self._envs = envs
        self.num_envs = len(envs)
        self.n_nodes = first.n_nodes
        self.state_dim = first.state_dim
        self._last_obs = np.zeros((self.num_envs, self.state_dim))
        # Replicas spawned from one environment share the (immutable)
        # population object, and the SoA best response is pure elementwise
        # math — so all M replicas can be answered with ONE population
        # call on the (M, n) price matrix, row-for-row bit-identical to M
        # separate calls.  Only engaged when every replica shares the same
        # population and local_epochs (spawn() guarantees both).
        pop = first.population
        self._shared_population = (
            pop
            if self.num_envs > 1
            and getattr(pop, "supports_batched_prices", False)
            and all(e.population is pop for e in envs)
            and all(
                e.config.local_epochs == first.config.local_epochs for e in envs
            )
            else None
        )
        self._local_epochs = first.config.local_epochs

    @classmethod
    def from_env(
        cls, env: EdgeLearningEnv, num_envs: int
    ) -> "VectorizedEdgeLearningEnv":
        """Build an M-replica vector env around an existing environment.

        Replica 0 *is* ``env`` (so ``num_envs=1`` wraps the sequential
        environment unchanged); the rest are spawned with child seeds
        derived from the environment's seed base.
        """
        if num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {num_envs}")
        envs = [env]
        if num_envs > 1:
            seeds = np.random.SeedSequence(env._seed_base).generate_state(
                num_envs - 1, dtype=np.uint32
            )
            envs.extend(env.spawn(int(s)) for s in seeds)
        return cls(envs)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def envs(self) -> List[EdgeLearningEnv]:
        return list(self._envs)

    @property
    def dones(self) -> np.ndarray:
        """Which replicas currently sit on a finished episode."""
        return np.array([env.done for env in self._envs], dtype=bool)

    # ------------------------------------------------------------------ #
    # episode control
    # ------------------------------------------------------------------ #
    def reset(
        self, seeds: Optional[Sequence[Optional[int]]] = None
    ) -> Tuple[np.ndarray, List[dict]]:
        """Reset every replica; returns ``(obs (M, D), infos)``."""
        if seeds is None:
            seeds = [None] * self.num_envs
        if len(seeds) != self.num_envs:
            raise ValueError(
                f"need {self.num_envs} seeds, got {len(seeds)}"
            )
        infos: List[dict] = []
        for i, (env, seed) in enumerate(zip(self._envs, seeds)):
            obs, info = env.reset(seed=seed)
            self._last_obs[i] = obs
            infos.append(info)
        return self._last_obs.copy(), infos

    def reset_at(
        self, index: int, seed: Optional[int] = None
    ) -> Tuple[np.ndarray, dict]:
        """Reset one replica (used when its episode finishes mid-batch)."""
        obs, info = self._envs[index].reset(seed=seed)
        self._last_obs[index] = obs
        return obs, info

    def step(
        self,
        prices: np.ndarray,
        active: Optional[Sequence[bool]] = None,
        copy_obs: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[Optional[dict]]]:
        """Step the active replicas under a ``(M, n_nodes)`` price batch.

        Returns stacked ``(obs, rewards, terminated, truncated, infos)``.
        Rows of inactive replicas carry their last observation, zero
        reward, ``False`` flags, and ``None`` info.

        ``copy_obs=False`` returns the internal observation buffer instead
        of a fresh copy — for callers that read per-replica state from
        ``infos`` (or consume the rows before the next ``step``/``reset``
        call) and don't want to pay an ``(M, D)`` copy per round.
        """
        prices = np.asarray(prices, dtype=np.float64)
        if prices.shape != (self.num_envs, self.n_nodes):
            raise ValueError(
                f"prices must have shape ({self.num_envs}, {self.n_nodes}), "
                f"got {prices.shape}"
            )
        # One whole-batch validation here lets each replica skip its
        # per-row re-check (env.step(..., validate=False)).
        if not np.isfinite(prices).all() or (prices.size and prices.min() < 0.0):
            raise ValueError(f"prices must be finite and non-negative: {prices}")
        if active is None:
            active = [True] * self.num_envs
        rewards = np.zeros(self.num_envs)
        terminated = np.zeros(self.num_envs, dtype=bool)
        truncated = np.zeros(self.num_envs, dtype=bool)
        infos: List[Optional[dict]] = [None] * self.num_envs
        batch = None
        if self._shared_population is not None:
            # One best-response call for the whole replica batch; each
            # replica below receives its own row (views into the freshly
            # allocated (M, n) response — exactly the aliasing contract of
            # a per-replica respond() call).
            batch = self._shared_population.respond(
                prices, self._local_epochs, validate=False
            )
        with _obs.span("env.step_all"):
            stepped = 0
            for i, env in enumerate(self._envs):
                if not active[i]:
                    continue
                if batch is not None:
                    # Bypass the frozen-dataclass __init__ (object.__setattr__
                    # per field costs ~2x a plain dict fill) — this runs once
                    # per replica per round.
                    response = NodeResponseBatch.__new__(NodeResponseBatch)
                    response.__dict__.update(
                        participates=batch.participates[i],
                        zeta=batch.zeta[i],
                        utility=batch.utility[i],
                        payment=batch.payment[i],
                        time=batch.time[i],
                        energy=batch.energy[i],
                    )
                else:
                    response = None
                obs, reward, term, trunc, info = env.step(
                    prices[i], validate=False, response=response
                )
                self._last_obs[i] = obs
                rewards[i] = reward
                terminated[i] = term
                truncated[i] = trunc
                infos[i] = info
                stepped += 1
        if _obs.enabled():
            _obs.counter("env.vector.steps").inc(stepped)
        obs_out = self._last_obs.copy() if copy_obs else self._last_obs
        return obs_out, rewards, terminated, truncated, infos
