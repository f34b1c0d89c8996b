"""Chiron: the hierarchical two-agent PPO mechanism (§V).

* The **exterior agent** maps the exterior state ``s_k^E`` to a single raw
  action squashed (sigmoid) into the total-price interval — the long-term
  lever controlling budget burn rate.
* The **inner agent** maps the (normalized) total price ``s_k^I = p_total``
  to ``N`` raw logits softmaxed into an allocation simplex — the short-term
  lever equalizing node finish times (Lemma 1).
* Per-node prices are their product: ``p_{i,k} = a_k^E · a_{i,k}^I``
  (Eqn 13).

Both agents are standard PPO actor-critics (:class:`repro.rl.PPOAgent`)
updated once per episode when the budget runs out, exactly as in
Algorithm 1.  One indexing note: Algorithm 1 line 15 stores the inner
transition as ``(s^I_{k−1}, a^I_{k−1}, r^I_k, s^I_k)``; since the idle time
of round ``k`` is fully determined by round ``k``'s own allocation, we pair
``r^I_k`` with ``a^I_k`` (the off-by-one in the listing appears to be a
typesetting artifact and pairing reward with its own action is the
well-posed credit assignment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs as _obs
from repro.core.env import EdgeLearningEnv, StepResult
from repro.core.mechanism import IncentiveMechanism, Observation
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.utils.numerics import sigmoid as _sigmoid
from repro.utils.numerics import softmax as _softmax
from repro.utils.rng import RNGLike, as_generator, spawn_generators, spawn_seeds


@dataclass(frozen=True)
class ChironConfig:
    """Hierarchical-agent configuration."""

    exterior: PPOConfig = field(default_factory=PPOConfig)
    inner: PPOConfig = field(default_factory=PPOConfig)
    #: fraction of `total_price_bounds` actually exposed to the agent;
    #: (0, 1] — 1 uses the full interval.
    price_span: float = 1.0
    deterministic_eval: bool = True
    #: RL algorithm for both layers: "ppo" (paper) or "a2c" (ablation).
    algorithm: str = "ppo"
    #: extension: feed the inner agent the previous round's per-node times
    #: alongside the total price (the paper's inner state is the price
    #: alone).  Richer feedback for the time-consistency objective.
    inner_observes_times: bool = False

    def __post_init__(self):
        if not 0 < self.price_span <= 1:
            raise ValueError(f"price_span must be in (0, 1], got {self.price_span}")
        if self.algorithm not in ("ppo", "a2c"):
            raise ValueError(
                f"algorithm must be 'ppo' or 'a2c', got {self.algorithm!r}"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (nested PPO configs included)."""
        from repro.utils.config import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChironConfig":
        """Reconstruct from :meth:`to_dict` output (registry entries)."""
        from repro.utils.config import config_from_dict

        return config_from_dict(cls, data)


class ChironAgent(IncentiveMechanism):
    """The paper's contribution: hierarchical DRL pricing."""

    name = "chiron"

    def __init__(
        self,
        env: EdgeLearningEnv,
        config: Optional[ChironConfig] = None,
        rng: RNGLike = None,
    ):
        super().__init__(env)
        self.config = config or ChironConfig()
        ext_rng, inn_rng = spawn_generators(as_generator(rng), 2)
        if self.config.algorithm == "a2c":
            from repro.rl.a2c import A2CAgent as agent_cls
        else:
            agent_cls = PPOAgent
        inner_obs_dim = 1 + (
            env.n_nodes if self.config.inner_observes_times else 0
        )
        self.exterior = agent_cls(
            obs_dim=env.state_dim, act_dim=1, config=self.config.exterior, rng=ext_rng
        )
        self.inner = agent_cls(
            obs_dim=inner_obs_dim,
            act_dim=env.n_nodes,
            config=self.config.inner,
            rng=inn_rng,
        )
        self._last_times = np.zeros(env.n_nodes)
        low, high = self.total_price_bounds()
        span = self.config.price_span
        self._price_low = low
        self._price_high = low + span * (high - low)
        self._price_ratio = self._price_high / self._price_low
        self.training = True
        # pending transition halves, completed by observe()
        self._pending: Optional[dict] = None
        self._episode_ext_reward = 0.0
        self._episode_inn_reward = 0.0
        # Collect-only mode (parallel training workers): transitions are
        # buffered but end_episode() must not consume them with an update —
        # the parent applies updates after merging (see apply_update()).
        self._defer_updates = False

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def _total_price_from_raw(self, raw: float) -> float:
        """Log-scale squash: ``low · (high/low)^sigmoid(raw)``.

        Prices are a positive scale quantity; mapping the raw action through
        a log-interval gives the agent uniform *relative* resolution, so the
        cheap budget-stretching region (near the participation floor) is as
        explorable as the expensive region near the price caps.
        """
        return float(self._price_low * self._price_ratio ** _sigmoid(raw))

    def _inner_obs(
        self, total_price: float, last_times: Optional[np.ndarray] = None
    ) -> np.ndarray:
        base = np.array([total_price / self.env.max_total_price])
        if not self.config.inner_observes_times:
            return base
        if last_times is None:
            last_times = self._last_times
        scaled = last_times / self.env.encoder.time_scale
        return np.concatenate([base, scaled])

    def propose_prices(self, obs: Observation) -> np.ndarray:
        deterministic = not self.training and self.config.deterministic_eval
        # Values feed GAE during training only; evaluation rollouts skip
        # both critic forwards (the sample streams are untouched).
        want_values = self.training
        with _obs.span("chiron.act"):
            ext_action, ext_logp, ext_value = self.exterior.act(
                obs.state, deterministic=deterministic, compute_values=want_values
            )
            total_price = self._total_price_from_raw(float(ext_action[0]))

            inner_obs = self._inner_obs(total_price)
            inn_action, inn_logp, inn_value = self.inner.act(
                inner_obs, deterministic=deterministic, compute_values=want_values
            )
        proportions = _softmax(inn_action)
        prices = total_price * proportions

        self._pending = {
            "ext_obs": obs.state,
            "ext_action": ext_action,
            "ext_logp": ext_logp,
            "ext_value": ext_value,
            "inn_obs": inner_obs,
            "inn_action": inn_action,
            "inn_logp": inn_logp,
            "inn_value": inn_value,
        }
        return prices

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def begin_episode(self, obs: Observation) -> None:
        self._pending = None
        self._episode_ext_reward = 0.0
        self._episode_inn_reward = 0.0
        self._last_times = np.zeros(self.env.n_nodes)

    def observe(self, prices: np.ndarray, result: StepResult) -> None:
        if self._pending is None:
            raise RuntimeError("observe() without a preceding propose_prices()")
        self._last_times = np.asarray(result.times, dtype=float)
        pend = self._pending
        self._pending = None
        self._episode_ext_reward += result.reward_exterior
        self._episode_inn_reward += result.reward_inner
        if not self.training:
            return
        # Episode boundaries are stored as terminal so multi-episode buffers
        # never leak GAE credit across episodes; max_rounds truncation is a
        # degenerate-policy guard, so the small bootstrap bias is acceptable.
        terminal = result.done
        if pend["ext_value"] is None:
            raise RuntimeError(
                "transition was proposed in eval mode (no critic values); "
                "call train_mode() before propose_prices(), not after"
            )
        self.exterior.store(
            pend["ext_obs"],
            pend["ext_action"],
            result.reward_exterior,
            pend["ext_value"],
            pend["ext_logp"],
            done=terminal,
        )
        self.inner.store(
            pend["inn_obs"],
            pend["inn_action"],
            result.reward_inner,
            pend["inn_value"],
            pend["inn_logp"],
            done=terminal,
        )

    def end_episode(self) -> Dict[str, float]:
        diagnostics: Dict[str, float] = {
            "episode_reward_exterior": self._episode_ext_reward,
            "episode_reward_inner": self._episode_inn_reward,
        }
        if not self._defer_updates:
            diagnostics.update(self.apply_update())
        return diagnostics

    def ready_to_update(self) -> bool:
        """Whether the buffered transitions warrant a PPO update now."""
        return (
            self.training
            and len(self.exterior.buffer) > 0
            and self.exterior.ready_to_update()
        )

    def apply_update(self) -> Dict[str, float]:
        """Run both sub-agents' PPO updates if the buffers are ready.

        Factored out of :meth:`end_episode` so the parallel training
        engine can merge worker trajectories first and then update *in
        the parent process* — agent state never crosses a pickle
        boundary.  Returns the prefixed update statistics (empty when
        the buffers are not ready).
        """
        diagnostics: Dict[str, float] = {}
        if self.ready_to_update():
            ext_stats = self.exterior.update()
            inn_stats = self.inner.update()
            diagnostics.update({f"exterior_{k}": v for k, v in ext_stats.items()})
            diagnostics.update({f"inner_{k}": v for k, v in inn_stats.items()})
        return diagnostics

    # ------------------------------------------------------------------ #
    # parallel trajectory collection (see repro.parallel.training)
    # ------------------------------------------------------------------ #
    supports_parallel_training = True

    def begin_collect(self, sample_seed: int) -> None:
        """Enter collect-only mode for one seeded episode (worker side).

        ``sample_seed`` deterministically reseeds both sub-agents'
        exploration noise (split via :func:`spawn_seeds` so the two
        layers stay decorrelated) and clears any transitions a pickled
        parent left pending.  Episode ends stop triggering updates until
        :meth:`take_collected` disarms the mode.
        """
        ext_seed, inn_seed = spawn_seeds(int(sample_seed), 2)
        self.exterior.begin_collect(int(ext_seed))
        self.inner.begin_collect(int(inn_seed))
        self._defer_updates = True

    def take_collected(self) -> Dict[str, dict]:
        """Both sub-agents' collected trajectories, leaving collect mode."""
        collected = {
            "exterior": self.exterior.take_collected(),
            "inner": self.inner.take_collected(),
        }
        self._defer_updates = False
        return collected

    def absorb_collected(self, collected: Dict[str, dict]) -> None:
        """Fold one worker episode into the parent's buffers/normalizers."""
        self.exterior.absorb_collected(collected["exterior"])
        self.inner.absorb_collected(collected["inner"])

    # ------------------------------------------------------------------ #
    # vectorized protocol (see IncentiveMechanism.supports_vectorized)
    # ------------------------------------------------------------------ #
    supports_vectorized = True

    def begin_vectorized(self, num_replicas: int) -> None:
        """Open per-replica learning state for an M-replica rollout.

        Replica transitions are *staged* inside the sub-agents and flushed
        into the PPO buffer at each replica's episode end
        (:meth:`end_episode_at`), so GAE never sees interleaved episodes.
        """
        self.exterior.begin_staging(num_replicas)
        self.inner.begin_staging(num_replicas)
        self._vec_pending: List[Optional[tuple]] = [None] * num_replicas
        self._vec_last_times = np.zeros((num_replicas, self.env.n_nodes))
        self._vec_ep_ext = np.zeros(num_replicas)
        self._vec_ep_inn = np.zeros(num_replicas)

    def begin_episode_at(self, replica: int) -> None:
        """Per-replica analogue of :meth:`begin_episode`."""
        self._vec_pending[replica] = None
        self._vec_ep_ext[replica] = 0.0
        self._vec_ep_inn[replica] = 0.0
        self._vec_last_times[replica] = 0.0

    def propose_prices_batch(
        self, obs_batch: np.ndarray, replicas: Sequence[int]
    ) -> np.ndarray:
        """Price vectors for a batch of replica observations.

        ``obs_batch`` holds one exterior state per entry of ``replicas``
        (the active replica indices).  Both policy forwards run once over
        the whole batch; a single-replica batch reproduces
        :meth:`propose_prices` bit for bit.
        """
        deterministic = not self.training and self.config.deterministic_eval
        # Values feed GAE during training only; evaluation rollouts skip
        # both critic forwards (the sample streams are untouched).
        want_values = self.training
        obs_batch = np.asarray(obs_batch, dtype=np.float64)
        with _obs.span("chiron.act_batch"):
            ext_actions, ext_logps, ext_values, ext_norm = self.exterior.act_batch(
                obs_batch, deterministic=deterministic, compute_values=want_values
            )
            # The log-interval squash stays a scalar per-element loop:
            # vectorizing it through np.power is NOT bit-identical to the
            # scalar ``float ** float`` used by the sequential path.
            squash = self._total_price_from_raw
            total_prices = np.array(
                [squash(raw) for raw in ext_actions[:, 0].tolist()]
            )
            if self.config.inner_observes_times:
                inner_obs = np.stack(
                    [
                        self._inner_obs(tp, self._vec_last_times[r])
                        for tp, r in zip(total_prices, replicas)
                    ]
                )
            else:
                # Vectorized _inner_obs: one scaled-price column
                # (elementwise division is bit-identical to the per-row
                # scalar division).
                inner_obs = total_prices[:, None] / self.env.max_total_price
            inn_actions, inn_logps, inn_values, inn_norm = self.inner.act_batch(
                inner_obs, deterministic=deterministic, compute_values=want_values
            )
        # Batched softmax normalizes each row independently and reproduces
        # the per-row call bit for bit.
        prices = total_prices[:, None] * _softmax(inn_actions, axis=-1)
        ext_logps_l = ext_logps.tolist()
        inn_logps_l = inn_logps.tolist()
        if want_values:
            ext_values_l = ext_values.tolist()
            inn_values_l = inn_values.tolist()
        else:
            # Eval rollout: the critics were skipped; observe_batch never
            # reads the value slots when not training.
            ext_values_l = inn_values_l = [None] * len(replicas)
        for j, replica in enumerate(replicas):
            self._vec_pending[replica] = (
                ext_norm[j],
                ext_actions[j],
                ext_logps_l[j],
                ext_values_l[j],
                inn_norm[j],
                inn_actions[j],
                inn_logps_l[j],
                inn_values_l[j],
            )
        return prices

    def observe_batch(
        self,
        replicas: Sequence[int],
        prices: np.ndarray,
        results: Sequence[StepResult],
    ) -> None:
        """Per-replica analogue of :meth:`observe` for one batched step."""
        training = self.training
        for j, replica in enumerate(replicas):
            result = results[j]
            pend = self._vec_pending[replica]
            if pend is None:
                raise RuntimeError(
                    "observe_batch() without a preceding propose_prices_batch()"
                )
            self._vec_pending[replica] = None
            self._vec_last_times[replica] = result.times
            self._vec_ep_ext[replica] += result.reward_exterior
            self._vec_ep_inn[replica] += result.reward_inner
            if not training:
                continue
            (
                ext_norm,
                ext_action,
                ext_logp,
                ext_value,
                inn_norm,
                inn_action,
                inn_logp,
                inn_value,
            ) = pend
            terminal = result.done
            if ext_value is None:
                raise RuntimeError(
                    "transition was proposed in eval mode (no critic "
                    "values); call train_mode() before "
                    "propose_prices_batch(), not after"
                )
            self.exterior.stage(
                replica,
                ext_norm,
                ext_action,
                result.reward_exterior,
                ext_value,
                ext_logp,
                terminal,
            )
            self.inner.stage(
                replica,
                inn_norm,
                inn_action,
                result.reward_inner,
                inn_value,
                inn_logp,
                terminal,
            )

    def end_episode_at(self, replica: int) -> Dict[str, float]:
        """Per-replica analogue of :meth:`end_episode`.

        Flushes the replica's staged trajectory into the sub-agents'
        buffers, then applies the same update trigger as the sequential
        path (buffer non-empty and past ``min_update_batch``).
        """
        diagnostics: Dict[str, float] = {
            "episode_reward_exterior": float(self._vec_ep_ext[replica]),
            "episode_reward_inner": float(self._vec_ep_inn[replica]),
        }
        if self.training:
            self.exterior.flush_staged(replica)
            self.inner.flush_staged(replica)
            if not self._defer_updates:
                diagnostics.update(self.apply_update())
        return diagnostics

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> "Path":
        """Write both sub-agents into one ``.npz`` checkpoint."""
        from repro.rl.checkpoint import save_many

        return save_many({"exterior": self.exterior, "inner": self.inner}, path)

    def load(self, path) -> "ChironAgent":
        """Restore a checkpoint written by :meth:`save` (same fleet size)."""
        from repro.rl.checkpoint import load_many

        load_many({"exterior": self.exterior, "inner": self.inner}, path)
        return self

    # ------------------------------------------------------------------ #
    # modes
    # ------------------------------------------------------------------ #
    def train_mode(self) -> "ChironAgent":
        self.training = True
        return self

    def eval_mode(self) -> "ChironAgent":
        """Freeze learning (no buffer writes, no updates)."""
        self.training = False
        return self
