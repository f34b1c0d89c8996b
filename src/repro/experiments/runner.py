"""Drive mechanisms through episodes of the edge-learning MDP.

:func:`run_episode` is the one rollout path: one environment, one
budget-bounded episode.  :func:`train_mechanism` and
:func:`evaluate_mechanism` run it one episode at a time; training has
one algorithm, the live mechanism learning from its own episodes
(Algorithm 1) in one pass, with no checkpoint or resume.  A trained
policy leaves the process through the mechanism's own ``save``/``load``
(:mod:`repro.rl.checkpoint`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.env import EdgeLearningEnv
from repro.core.mechanism import IncentiveMechanism, Observation
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


def train_mechanism(
    env: EdgeLearningEnv,
    mechanism: IncentiveMechanism,
    episodes: int,
    log_every: Optional[int] = None,
) -> TrainingHistory:
    """Train a mechanism for ``episodes`` budget-bounded episodes.

    Each episode runs on the live ``(env, mechanism)`` pair and the
    mechanism updates itself when the budget runs out (Algorithm 1,
    lines 17–27).
    """
    check_positive("episodes", episodes)
    if hasattr(mechanism, "train_mode"):
        mechanism.train_mode()
    history = TrainingHistory(mechanism=mechanism.name)
    for episode_idx in range(episodes):
        result, diag = run_episode(env, mechanism)
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
    ``env``/``mechanism`` are left untouched.  ``workers=1`` runs the
    episodes one after another in this process, and a failing episode
    raises its own exception at once.  ``workers > 1`` fans the episodes
    over a :mod:`repro.parallel` process pool, which retries a failing
    episode and then raises ``RuntimeError``.

    ``seed=None`` (only valid with ``workers=1``) runs the episodes on
    the caller's pair: they continue the environment's own stream and
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

    # Seeded: one hermetic item per episode, run by the same function
    # in process or in a worker, so the worker count cannot change a
    # single bit of the output.  A seeded episode fails the same way on
    # every attempt, so in process it gets no retry.
    import pickle

    from repro.parallel.items import episodes_from_dicts, eval_item, execute
    from repro.utils.rng import spawn_seeds

    bundle = pickle.dumps((env, mechanism))
    items = [
        eval_item(bundle, [episode_seed])
        for episode_seed in spawn_seeds(seed, episodes)
    ]
    if workers == 1:
        outputs = [execute(item) for item in items]
    else:
        from repro.parallel.pool import PoolConfig, run_items

        report = run_items(items, config=PoolConfig(workers=workers))
        if report.quarantined:
            failure = report.quarantined[0]
            raise RuntimeError(
                f"evaluation episode {failure.index} failed after "
                f"{failure.attempts} attempts: "
                f"{failure.errors[-1] if failure.errors else 'unknown'}"
            )
        outputs = report.results
    return [episodes_from_dicts(out["episodes"])[0] for out in outputs]
