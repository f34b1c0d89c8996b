"""Seeded round training: collect a round of episodes, then update.

Training is a sequential chain — episode ``k+1`` starts from the policy
episode ``k`` produced.  This engine trains in synchronous generations
("rounds") of ``sync_every`` episodes, all in the calling process:

1. **Snapshot** — ``(env, mechanism)`` is pickled once per round (a
   single bundle, preserving the ``mechanism.env is env`` identity,
   exactly like :func:`~repro.parallel.items.eval_item`).
2. **Collect** — each episode of the round unpickles its own copy of
   the snapshot and replays exactly one episode with an explicit env
   seed and exploration-noise seed, returning the collected transitions
   plus the raw observations it saw.  No copy ever updates a weight, and
   the live ``env`` is never stepped.
3. **Merge** — the round's episodes are folded into the live mechanism
   in episode order: raw observations replay row by row through the
   live normalizer (bit-identical to the per-step updates a local
   episode would have performed) and transitions append to the live
   rollout buffer (:meth:`~repro.rl.ppo.PPOAgent.absorb_collected`).
4. **Update** — one PPO update per round
   (:meth:`~repro.core.chiron.ChironAgent.apply_update`).

Determinism contract: the result is a pure function of ``(env,
mechanism, episodes, seed, sync_every)``.  Every episode of a round is
collected against the same snapshot, and episode seeds are spawned off
``seed`` up front (:func:`~repro.utils.rng.spawn_seeds`), so neither a
resume point nor a drained round changes the curve.  The committed
golden training trace pins it.  ``sync_every=1`` degenerates to the
exact sequential collect-then-update-every-episode chain.

A seeded episode fails the same way every time it runs, so a failing
episode raises its own exception at once: there is nothing to retry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
from dataclasses import asdict
from typing import List, Optional

from repro.experiments.results import EpisodeResult, TrainingHistory
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_positive

__all__ = [
    "DEFAULT_SYNC_EVERY",
    "train_parallel",
    "training_rows",
    "training_fingerprint",
    "rows_fingerprint",
    "KIND_TRAIN_HEADER",
    "KIND_TRAIN_ROUND",
]

_log = logging.getLogger(__name__)

#: Episodes collected per policy snapshot.  The update cadence shapes
#: the trajectory, so it is a plain constant that the golden training
#: trace and every seeded run depend on.
DEFAULT_SYNC_EVERY = 4

#: Journal record kinds (see :mod:`repro.resilience.journal`).
KIND_TRAIN_HEADER = "train_header"
KIND_TRAIN_ROUND = "train_round"


def training_rows(history: TrainingHistory) -> List[dict]:
    """The canonical per-episode rows a training fingerprint digests.

    One dict per episode: the :class:`EpisodeResult` fields plus the
    float-coerced diagnostics — everything observable about the learning
    curve, in episode order.
    """
    rows = []
    for index, (result, diag) in enumerate(
        zip(history.episodes, history.diagnostics)
    ):
        rows.append(
            {
                "episode": index,
                "result": asdict(result),
                "diagnostics": {k: float(v) for k, v in diag.items()},
            }
        )
    return rows


def rows_fingerprint(rows: List[dict]) -> str:
    """sha256 over the canonical JSON form of :func:`training_rows`."""
    canonical = json.dumps(rows, sort_keys=True, default=float)
    return hashlib.sha256(canonical.encode()).hexdigest()


def training_fingerprint(history: TrainingHistory) -> str:
    """Digest of the full learning curve; equal digests mean bit-equal
    training runs (every reward, loss and diagnostic matched)."""
    return rows_fingerprint(training_rows(history))


def _round_boundaries(episodes: int, sync_every: int, start: int):
    """Yield ``(lo, hi)`` episode spans, one per round, from ``start``."""
    lo = start
    while lo < episodes:
        hi = min(lo + sync_every, episodes)
        yield lo, hi
        lo = hi


def _collect_episode(bundle: bytes, env_seed: int, sample_seed: int):
    """Replay one seeded episode on a fresh copy of the round snapshot.

    Returns ``(result, diagnostics, collected)``; the copy is discarded,
    so the live ``(env, mechanism)`` pair is never touched.
    """
    from repro.experiments.runner import run_episode

    env, mechanism = pickle.loads(bundle)
    if hasattr(mechanism, "train_mode"):
        mechanism.train_mode()
    mechanism.begin_collect(sample_seed)
    result, diagnostics = run_episode(env, mechanism, seed=env_seed)
    return (
        result,
        {k: float(v) for k, v in diagnostics.items()},
        mechanism.take_collected(),
    )


def train_parallel(
    env,
    mechanism,
    episodes: int,
    *,
    seed: int,
    sync_every: Optional[int] = None,
    log_every: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    guard=None,
    journal=None,
) -> TrainingHistory:
    """Train ``mechanism`` in seeded rounds of ``sync_every`` episodes.

    The round engine described in the module docstring.  ``seed`` pins
    the per-episode env/exploration seeds and is required.

    ``checkpoint_every=N`` (with ``checkpoint_dir``) persists the
    mechanism's full-fidelity checkpoint at every round boundary that
    crosses a multiple of N episodes; with ``resume`` (default) a rerun
    against the same directory continues bitwise-identically — resumed
    fingerprints equal uninterrupted ones (pinned by the
    kill-mid-training chaos drill).  ``guard`` (a
    :class:`~repro.resilience.signals.ShutdownGuard`) is checked before
    each episode; a drained round is discarded unabsorbed, so the run
    stops at the last whole round.  ``journal`` (a
    :class:`~repro.resilience.journal.RunJournal`) receives a
    ``train_header`` record plus one ``train_round`` record per settled
    round — the liveness signal the chaos drill watches.

    An exception raised by an episode propagates unchanged.
    """
    check_positive("episodes", episodes)
    if seed is None:
        raise ValueError(
            "train_parallel requires an explicit seed: per-episode env "
            "and exploration seeds are what make round training "
            "deterministic"
        )
    if sync_every is None:
        sync_every = DEFAULT_SYNC_EVERY
    check_positive("sync_every", sync_every)
    if not getattr(mechanism, "supports_parallel_training", False):
        raise TypeError(
            f"mechanism {getattr(mechanism, 'name', mechanism)!r} does not "
            "support seeded round training (no begin_collect/"
            "take_collected protocol); use repro.parallel.run_sweep to "
            "parallelize across independent runs instead"
        )
    checkpointing = checkpoint_every is not None or checkpoint_dir is not None
    if checkpointing:
        if checkpoint_every is None or checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every and checkpoint_dir must be set together"
            )
        check_positive("checkpoint_every", checkpoint_every)
        if not (hasattr(mechanism, "save") and hasattr(mechanism, "load")):
            raise TypeError(
                f"mechanism {mechanism.name!r} has no save/load and cannot "
                "be checkpointed"
            )

    if hasattr(mechanism, "train_mode"):
        mechanism.train_mode()
    history = TrainingHistory(mechanism=mechanism.name)
    start_episode = 0
    if checkpointing and resume:
        from repro.resilience.training import (
            latest_checkpoint,
            load_training_checkpoint,
        )

        newest = latest_checkpoint(checkpoint_dir)
        if newest is not None:
            start_episode, history = load_training_checkpoint(
                newest, mechanism, env
            )
            if start_episode >= episodes:
                return history
            if start_episode % sync_every != 0:
                raise ValueError(
                    f"checkpoint at episode {start_episode} is not a "
                    f"round boundary for sync_every={sync_every}; resume "
                    "with the sync_every the original run used"
                )

    # One seed per episode, spawned up front: episode e's seeds do not
    # depend on sync_every or the resume point.
    ep_seeds = spawn_seeds(int(seed), episodes)

    if journal is not None:
        journal.append(
            KIND_TRAIN_HEADER,
            {
                "mechanism": mechanism.name,
                "episodes": int(episodes),
                "seed": int(seed),
                "sync_every": int(sync_every),
                "start_episode": int(start_episode),
            },
        )

    if checkpointing:
        from repro.resilience.training import save_training_checkpoint

    def log_episode(index: int, result: EpisodeResult) -> None:
        if log_every and (index + 1) % log_every == 0:
            _log.info(
                "%s episode %d/%d: reward=%.1f acc=%.3f rounds=%d eff=%.2f",
                mechanism.name,
                index + 1,
                episodes,
                result.reward_exterior,
                result.final_accuracy,
                result.rounds,
                result.mean_time_efficiency,
            )

    interrupted = False
    for lo, hi in _round_boundaries(episodes, sync_every, start_episode):
        bundle = pickle.dumps((env, mechanism))
        collected = []
        for e in range(lo, hi):
            if guard is not None and guard.draining:
                interrupted = True
                break
            env_seed, sample_seed = spawn_seeds(int(ep_seeds[e]), 2)
            collected.append(_collect_episode(bundle, env_seed, sample_seed))
        if interrupted:
            # The deterministic contract only holds for whole rounds:
            # discard the partial round (none of it was absorbed) and
            # stop at the previous boundary.
            break
        for e, (result, diagnostics, trajectory) in enumerate(collected, lo):
            mechanism.absorb_collected(trajectory)
            history.append(result, diagnostics)
            log_episode(e, result)
        stats = mechanism.apply_update()
        if stats:
            history.diagnostics[-1].update(stats)

        if checkpointing and (
            hi // checkpoint_every > lo // checkpoint_every
            or hi >= episodes
        ):
            save_training_checkpoint(
                checkpoint_dir, mechanism, env, history, hi
            )
        if journal is not None:
            journal.append(
                KIND_TRAIN_ROUND,
                {"round": lo // sync_every, "episodes_done": hi},
            )

    if interrupted and checkpointing and len(history) > start_episode:
        # Drained by the guard: persist the boundary we stopped at so
        # the rerun continues exactly here.
        save_training_checkpoint(
            checkpoint_dir, mechanism, env, history, len(history)
        )
    return history
