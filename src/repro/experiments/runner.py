"""Drive mechanisms through episodes of the edge-learning MDP.

Two rollout paths:

* :func:`run_episode` — one environment, one episode (the sequential
  reference path).
* :func:`run_episodes_vectorized` — M independently seeded environment
  replicas stepped in lockstep, with batched mechanism inference
  (:meth:`~repro.core.chiron.ChironAgent.propose_prices_batch`).  With
  ``num_envs=1`` it reproduces the sequential path bit for bit; with more
  replicas it amortizes the policy forward across the batch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro import obs as _obs
from repro.core.env import EdgeLearningEnv
from repro.core.mechanism import IncentiveMechanism, Observation
from repro.core.vector import VectorizedEdgeLearningEnv
from repro.experiments.results import EpisodeResult, TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

_log = get_logger("experiments.runner")


def run_episode(
    env: EdgeLearningEnv,
    mechanism: IncentiveMechanism,
    seed: Optional[int] = None,
) -> Tuple[EpisodeResult, dict]:
    """Run one episode to budget exhaustion; returns (result, diagnostics).

    ``seed`` pins the episode's availability/fault/learning-noise streams,
    making the rollout reproducible independent of how many episodes ran
    before it (the golden-trace harness and differential runner rely on
    exactly this).  ``None`` keeps the environment's own episode stream.
    """
    with _obs.span("episode"):
        state, _ = env.reset(seed=seed)
        obs = Observation(state, env.ledger.remaining, env.round_index)
        mechanism.begin_episode(obs)

        efficiencies: List[float] = []
        total_time = 0.0
        reward_ext = 0.0
        reward_inn = 0.0
        kept = 0
        wasted = 0
        while not env.done:
            prices = mechanism.propose_prices(obs)
            _, _, _, _, info = env.step(prices)
            result = info["step_result"]
            mechanism.observe(prices, result)
            reward_ext += result.reward_exterior
            reward_inn += result.reward_inner
            if result.round_kept:
                kept += 1
                efficiencies.append(result.efficiency)
                total_time += result.round_time
            elif not result.done:
                wasted += 1
            obs = Observation(
                result.state, result.remaining_budget, result.round_index
            )

        diagnostics = mechanism.end_episode()
    if _obs.enabled():
        _obs.counter("runner.episodes").inc()
    episode = EpisodeResult(
        rounds=kept,
        final_accuracy=env.accuracy,
        mean_time_efficiency=float(np.mean(efficiencies)) if efficiencies else 0.0,
        total_learning_time=total_time,
        budget_spent=env.ledger.spent,
        reward_exterior=reward_ext,
        reward_inner=reward_inn,
        wasted_rounds=wasted,
    )
    return episode, diagnostics


def _blank_accumulator() -> dict:
    return {
        "efficiencies": [],
        "total_time": 0.0,
        "reward_ext": 0.0,
        "reward_inn": 0.0,
        "kept": 0,
        "wasted": 0,
    }


def run_episodes_vectorized(
    env: Union[EdgeLearningEnv, VectorizedEdgeLearningEnv],
    mechanism: IncentiveMechanism,
    episodes: int,
    num_envs: int = 1,
) -> List[Tuple[EpisodeResult, dict]]:
    """Run ``episodes`` episodes across ``num_envs`` environment replicas.

    Replicas run out of budget at different times, so episodes complete
    out of phase: whenever a replica finishes, its episode is recorded and
    the replica is reset onto the next pending episode (if any).  Returns
    ``(EpisodeResult, diagnostics)`` pairs in completion order.

    Requires a mechanism implementing the vectorized batch protocol
    (``supports_vectorized``); currently that is
    :class:`~repro.core.chiron.ChironAgent` (both PPO and A2C variants).
    """
    check_positive("episodes", episodes)
    if not getattr(mechanism, "supports_vectorized", False):
        raise TypeError(
            f"mechanism {mechanism.name!r} does not implement the vectorized "
            "batch protocol; run it with train_mechanism(..., num_envs=1)"
        )
    if isinstance(env, VectorizedEdgeLearningEnv):
        venv = env
    else:
        venv = VectorizedEdgeLearningEnv.from_env(env, num_envs)
    num_replicas = venv.num_envs

    mechanism.begin_vectorized(num_replicas)
    obs = np.zeros((num_replicas, venv.state_dim))
    active = [False] * num_replicas
    accumulators: List[Optional[dict]] = [None] * num_replicas
    started = 0
    completed: List[Tuple[EpisodeResult, dict]] = []

    def start_episode(replica: int) -> None:
        nonlocal started
        initial, _ = venv.reset_at(replica)
        obs[replica] = initial
        mechanism.begin_episode_at(replica)
        accumulators[replica] = _blank_accumulator()
        active[replica] = True
        started += 1

    for replica in range(min(num_replicas, episodes)):
        start_episode(replica)

    prices_full = np.zeros((num_replicas, venv.n_nodes))
    all_replicas = list(range(num_replicas))
    while any(active):
        with _obs.span("runner.vectorized"):
            if all(active):
                # Every replica live (the steady state): skip the
                # fancy-index copies — propose/step read their inputs
                # without mutating them.
                replicas = all_replicas
                prices = mechanism.propose_prices_batch(obs, replicas)
                step_prices = prices
            else:
                replicas = [i for i in range(num_replicas) if active[i]]
                prices = mechanism.propose_prices_batch(obs[replicas], replicas)
                prices_full[replicas] = prices
                step_prices = prices_full
            _, _, _, _, infos = venv.step(
                step_prices, active=active, copy_obs=False
            )
            results = [infos[i]["step_result"] for i in replicas]
            mechanism.observe_batch(replicas, prices, results)
        for j, replica in enumerate(replicas):
            result = results[j]
            acc = accumulators[replica]
            acc["reward_ext"] += result.reward_exterior
            acc["reward_inn"] += result.reward_inner
            if result.round_kept:
                acc["kept"] += 1
                acc["efficiencies"].append(result.efficiency)
                acc["total_time"] += result.round_time
            elif not result.done:
                acc["wasted"] += 1
            obs[replica] = result.state
            if result.done:
                diagnostics = mechanism.end_episode_at(replica)
                replica_env = venv.envs[replica]
                completed.append(
                    (
                        EpisodeResult(
                            rounds=acc["kept"],
                            final_accuracy=replica_env.accuracy,
                            mean_time_efficiency=(
                                float(np.mean(acc["efficiencies"]))
                                if acc["efficiencies"]
                                else 0.0
                            ),
                            total_learning_time=acc["total_time"],
                            budget_spent=replica_env.ledger.spent,
                            reward_exterior=acc["reward_ext"],
                            reward_inner=acc["reward_inn"],
                            wasted_rounds=acc["wasted"],
                        ),
                        diagnostics,
                    )
                )
                active[replica] = False
                if _obs.enabled():
                    _obs.counter("runner.episodes").inc()
                if started < episodes:
                    start_episode(replica)
    return completed


def _spawn_available() -> bool:
    """Whether this platform can start ``spawn`` worker processes."""
    import sys

    if sys.platform in ("emscripten", "wasi"):
        return False
    try:
        import multiprocessing as mp

        mp.get_context("spawn")
    except (ImportError, ValueError):  # pragma: no cover - exotic platform
        return False
    return True


#: One-time flag for the no-spawn fallback warning (module-level so the
#: warning fires once per process, not once per training run).
_warned_no_spawn = False


def train_mechanism(
    env: Union[EdgeLearningEnv, VectorizedEdgeLearningEnv],
    mechanism: IncentiveMechanism,
    episodes: int,
    log_every: Optional[int] = None,
    num_envs: int = 1,
    workers: int = 1,
    seed: Optional[int] = None,
    sync_every: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    guard=None,
    journal=None,
) -> TrainingHistory:
    """Train a mechanism for ``episodes`` budget-bounded episodes.

    ``num_envs > 1`` rolls episodes out on that many environment replicas
    via :func:`run_episodes_vectorized` (vector-capable mechanisms only);
    the history then lists episodes in completion order.

    ``workers > 1`` (or any explicit ``seed``) routes through the
    parallel training engine (:func:`repro.parallel.train_parallel`):
    trajectory collection fans out over seeded hermetic episodes while
    every weight update stays in this process.  Requires a mechanism
    supporting the collect protocol (``supports_parallel_training``) and
    an explicit ``seed`` — the per-episode seeds are what make pooled
    collection deterministic.  The history is bit-identical for any
    worker count (including ``workers=1``).  ``sync_every`` sets episodes
    collected per policy snapshot.  On platforms that cannot spawn
    subprocesses, ``workers > 1`` falls back to in-process collection
    with a one-time warning — same results, no parallelism.

    ``checkpoint_every=N`` (with ``checkpoint_dir``) makes the run
    *crash-safe*: every N completed episodes the mechanism's
    full-fidelity checkpoint plus the environment's cross-episode RNG
    state and the history so far are written atomically (see
    :mod:`repro.resilience.training`).  With ``resume`` (the default), a
    rerun pointing at the same directory restores the newest checkpoint
    and continues *bitwise-identically* to the run that was never killed
    — requires the sequential path (``num_envs == 1``) and a mechanism
    exposing ``save``/``load``.  ``guard`` (a
    :class:`~repro.resilience.signals.ShutdownGuard`) stops at the next
    episode (or round) boundary on SIGTERM/SIGINT, writing a final
    checkpoint when checkpointing is configured; the returned history is
    then partial.  ``journal`` is forwarded to the parallel engine for
    crash-drill liveness records (sequential runs ignore it).
    """
    global _warned_no_spawn
    check_positive("episodes", episodes)
    check_positive("num_envs", num_envs)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    parallel = workers != 1 or seed is not None or sync_every is not None
    if parallel:
        if num_envs > 1 or isinstance(env, VectorizedEdgeLearningEnv):
            raise ValueError(
                "parallel training requires num_envs=1: vectorized "
                "replicas and pooled trajectory collection are two "
                "different batching axes — pick one"
            )
        if seed is None:
            raise ValueError(
                "train_mechanism(workers>1) requires an explicit seed: "
                "per-episode env/exploration seeds are what make pooled "
                "trajectory collection deterministic"
            )
        if not getattr(mechanism, "supports_parallel_training", False):
            raise TypeError(
                f"mechanism {mechanism.name!r} does not support parallel "
                "training (no collect protocol); use "
                "repro.parallel.run_sweep to parallelize across "
                "independent (mechanism, budget, seed) runs instead"
            )
        if workers > 1 and not _spawn_available():
            if not _warned_no_spawn:
                _log.warning(
                    "platform cannot spawn subprocesses; falling back to "
                    "in-process trajectory collection (workers=1) — "
                    "results are identical, wall-clock is not"
                )
                _warned_no_spawn = True
            workers = 1
        from repro.parallel.training import train_parallel

        return train_parallel(
            env,
            mechanism,
            episodes,
            seed=seed,
            workers=workers,
            sync_every=sync_every,
            log_every=log_every,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            guard=guard,
            journal=journal,
        )
    checkpointing = checkpoint_every is not None or checkpoint_dir is not None
    if checkpointing:
        if checkpoint_every is None or checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every and checkpoint_dir must be set together"
            )
        check_positive("checkpoint_every", checkpoint_every)
        if num_envs > 1 or isinstance(env, VectorizedEdgeLearningEnv):
            raise ValueError(
                "checkpointing requires the sequential path (num_envs=1): "
                "vectorized replicas finish out of phase, so there is no "
                "consistent episode boundary to checkpoint at"
            )
        if not (hasattr(mechanism, "save") and hasattr(mechanism, "load")):
            raise TypeError(
                f"mechanism {mechanism.name!r} has no save/load and cannot "
                "be checkpointed"
            )
    if hasattr(mechanism, "train_mode"):
        mechanism.train_mode()
    history = TrainingHistory(mechanism=mechanism.name)
    if num_envs > 1 or isinstance(env, VectorizedEdgeLearningEnv):
        for episode_idx, (result, diag) in enumerate(
            run_episodes_vectorized(env, mechanism, episodes, num_envs)
        ):
            history.append(result, diag)
            if log_every and (episode_idx + 1) % log_every == 0:
                _log.info(
                    "%s episode %d/%d: reward=%.1f acc=%.3f rounds=%d eff=%.2f",
                    mechanism.name,
                    episode_idx + 1,
                    episodes,
                    result.reward_exterior,
                    result.final_accuracy,
                    result.rounds,
                    result.mean_time_efficiency,
                )
        return history

    start_episode = 0
    if checkpointing:
        from repro.resilience.training import (
            latest_checkpoint,
            load_training_checkpoint,
            save_training_checkpoint,
        )

        if resume:
            newest = latest_checkpoint(checkpoint_dir)
            if newest is not None:
                start_episode, history = load_training_checkpoint(
                    newest, mechanism, env
                )
                if start_episode >= episodes:
                    return history
    for episode_idx in range(start_episode, episodes):
        if guard is not None and guard.draining:
            break
        result, diag = run_episode(env, mechanism)
        history.append(result, diag)
        if checkpointing and (episode_idx + 1) % checkpoint_every == 0:
            save_training_checkpoint(
                checkpoint_dir, mechanism, env, history, episode_idx + 1
            )
        if log_every and (episode_idx + 1) % log_every == 0:
            _log.info(
                "%s episode %d/%d: reward=%.1f acc=%.3f rounds=%d eff=%.2f",
                mechanism.name,
                episode_idx + 1,
                episodes,
                result.reward_exterior,
                result.final_accuracy,
                result.rounds,
                result.mean_time_efficiency,
            )
    else:
        return history
    # Drained by the guard: persist the boundary we stopped at so the
    # rerun continues exactly here instead of replaying episodes.
    if checkpointing and len(history) > start_episode:
        save_training_checkpoint(
            checkpoint_dir, mechanism, env, history, len(history)
        )
    return history


def evaluate_mechanism(
    env: EdgeLearningEnv,
    mechanism: IncentiveMechanism,
    episodes: int = 5,
    seed: Optional[int] = None,
    workers: int = 1,
) -> List[EpisodeResult]:
    """Run evaluation episodes with learning frozen (when supported).

    With ``seed`` set, per-episode seeds come from
    :func:`repro.utils.rng.spawn_seeds` (``SeedSequence.spawn`` fan-out)
    and each episode runs on its own snapshot of ``(env, mechanism)``, so
    episode ``i`` is a pure function of ``(seed, i)`` — the result list
    is bit-identical for **any** ``workers`` value, and the caller's
    ``env``/``mechanism`` are left untouched.  ``workers > 1`` fans the
    episodes over a :mod:`repro.parallel` process pool.

    Two deliberate behaviour changes versus the pre-parallel seeded path
    (see ``tests/experiments/test_parallel_eval.py``):

    * seeds used to be ``SeedSequence(seed).generate_state(episodes,
      dtype=np.uint32)`` words, which are collision-prone across user
      seeds (birthday bound near 2**16) and carry no independence
      guarantee — spawned children carry both;
    * episodes used to share mutable env/mechanism state, so episode
      ``i``'s result depended on episodes ``< i`` having run — that
      coupling is exactly what made parallel evaluation impossible.

    ``seed=None`` (only valid with ``workers=1``) keeps the legacy
    shared-state path: episodes continue the environment's own stream and
    mechanism state advances across episodes, which training-time
    evaluation and the checkpoint round-trip tests rely on.
    """
    check_positive("episodes", episodes)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if seed is None:
        if workers != 1:
            raise ValueError(
                "evaluate_mechanism(workers>1) requires seed=...: without "
                "a seed, episodes share mutable env/mechanism state and "
                "have no parallel decomposition"
            )
        # Hand the mechanism back in the caller's mode; one without a
        # ``training`` flag goes back to training mode.
        switches = hasattr(mechanism, "eval_mode")
        was_training = getattr(mechanism, "training", True)
        if switches:
            mechanism.eval_mode()
        try:
            return [run_episode(env, mechanism)[0] for _ in range(episodes)]
        finally:
            if switches and was_training:
                mechanism.train_mode()

    # Seeded: hermetic per-episode items through the parallel engine.
    # workers=1 executes them in-process — same code path, no processes —
    # so the worker count cannot change a single bit of the output.
    import pickle

    from repro.parallel.items import episodes_from_dicts, eval_item
    from repro.parallel.pool import PoolConfig, run_items
    from repro.utils.rng import spawn_seeds

    bundle = pickle.dumps((env, mechanism))
    items = [
        eval_item(bundle, [episode_seed])
        for episode_seed in spawn_seeds(seed, episodes)
    ]
    report = run_items(items, config=PoolConfig(workers=workers))
    if report.quarantined:
        failure = report.quarantined[0]
        raise RuntimeError(
            f"evaluation episode {failure.index} failed after "
            f"{failure.attempts} attempts: "
            f"{failure.errors[-1] if failure.errors else 'unknown'}"
        )
    return [
        episodes_from_dicts(item["episodes"])[0] for item in report.results
    ]
