"""Parallel mechanism training: fan trajectory collection out, update in.

The sweep engine parallelizes *across* independent runs; this module
parallelizes *within* one training run, A3C/A2C-style.  Training is a
sequential chain — episode ``k+1`` must start from the policy episode
``k`` produced — so the only safely concurrent work is *trajectory
collection*.  The engine therefore proceeds in synchronous generations
("rounds") of ``sync_every`` episodes:

1. **Snapshot** — the parent pickles ``(env, mechanism)`` once per round
   (a single bundle, preserving the ``mechanism.env is env`` identity,
   exactly like :func:`~repro.parallel.items.eval_item`).
2. **Collect** — one hermetic ``train`` item per episode of the round
   fans out over the spawn-safe pool (:class:`~repro.parallel.pool.WorkerPool`,
   persistent across rounds so the interpreter+numpy spawn cost is paid
   once).  Each item replays exactly one episode against the snapshot
   with an explicit env seed and exploration-noise seed, and returns the
   collected transitions plus the raw observations it saw — **no worker
   ever updates a weight**.
3. **Merge** — the parent ingests episodes in *seed order* (submission
   order, not arrival order): raw observations replay row-by-row through
   the live normalizer (bit-identical to the per-step updates a local
   episode would have performed) and transitions append to the live
   rollout buffer (:meth:`~repro.rl.ppo.PPOAgent.absorb_collected`).
4. **Update** — the parent runs the PPO update in-process
   (:meth:`~repro.core.chiron.ChironAgent.apply_update`), so optimizer
   moments, LR schedules and the minibatch-shuffle stream never cross a
   pickle boundary.

Determinism contract: the result is a pure function of ``(env,
mechanism, episodes, seed, sync_every)`` and — because every episode of a
round is collected against the same snapshot and ingested in seed order
— **independent of the worker count**.  ``training_fingerprint`` digests
run at workers 1, 2 and 4 are identical (pinned by the
``train_w2``/``train_w4`` differential variants and the committed golden
training trace).  ``sync_every=1`` degenerates to the exact sequential
collect-then-update-every-episode chain.

Because collection is seed-driven, the parent's live ``env`` object is
never stepped — episode stochastics come entirely from the per-episode
seeds spawned off ``seed`` (:func:`~repro.parallel.seeds.spawn_seeds`
semantics via :mod:`repro.utils.rng`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
from dataclasses import asdict
from typing import List, Optional

from repro.experiments.results import EpisodeResult, TrainingHistory
from repro.parallel.items import train_item
from repro.parallel.pool import PoolConfig, WorkerPool
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

#: Episodes collected per policy snapshot.  A *constant* on purpose:
#: deriving it from the worker count would make the training trajectory
#: a function of parallelism and break worker-count invariance.
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


def train_parallel(
    env,
    mechanism,
    episodes: int,
    *,
    seed: int,
    workers: int = 1,
    sync_every: Optional[int] = None,
    pool_config: Optional[PoolConfig] = None,
    log_every: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    guard=None,
    journal=None,
) -> TrainingHistory:
    """Train ``mechanism`` with parallel trajectory collection.

    The generation-based engine described in the module docstring.
    ``seed`` pins the per-episode env/exploration seeds and is required:
    seeded hermetic episodes are what make collection order-free.

    ``checkpoint_every=N`` (with ``checkpoint_dir``) persists the
    mechanism's full-fidelity checkpoint at every round boundary that
    crosses a multiple of N episodes; with ``resume`` (default) a rerun
    against the same directory continues bitwise-identically — resumed
    fingerprints equal uninterrupted ones (pinned by the
    kill-mid-training chaos drill).  ``guard`` (a
    :class:`~repro.resilience.signals.ShutdownGuard`) stops cleanly at
    the next round boundary, discarding any half-collected round.
    ``journal`` (a :class:`~repro.resilience.journal.RunJournal`)
    receives a ``train_header`` record plus one ``train_round`` record
    per settled round — the liveness signal the chaos drill watches.

    Quarantined collection items (an episode that kept failing past the
    pool's retry budget) raise ``RuntimeError``: unlike a sweep, a
    training run cannot tolerate holes in its episode sequence.
    """
    check_positive("episodes", episodes)
    check_positive("workers", workers)
    if seed is None:
        raise ValueError(
            "train_parallel requires an explicit seed: per-episode env "
            "and exploration seeds are what make parallel collection "
            "deterministic"
        )
    if sync_every is None:
        sync_every = DEFAULT_SYNC_EVERY
    check_positive("sync_every", sync_every)
    if not getattr(mechanism, "supports_parallel_training", False):
        raise TypeError(
            f"mechanism {getattr(mechanism, 'name', mechanism)!r} does not "
            "support parallel training (no begin_collect/take_collected "
            "protocol); use repro.parallel.run_sweep to parallelize "
            "across independent runs instead"
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
    # depend on sync_every, workers, or resume point.
    ep_seeds = spawn_seeds(int(seed), episodes)

    if journal is not None:
        journal.append(
            KIND_TRAIN_HEADER,
            {
                "mechanism": mechanism.name,
                "episodes": int(episodes),
                "seed": int(seed),
                "sync_every": int(sync_every),
                "workers": int(workers),
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

    def ingest(payload: dict) -> None:
        """Fold one collected episode into the parent, in call order."""
        result = EpisodeResult(**payload["episode"])
        mechanism.absorb_collected(payload["collected"])
        history.append(result, dict(payload["diagnostics"]))
        log_episode(payload["episode_index"], result)

    config = pool_config or PoolConfig(workers=workers)
    should_stop = (
        (lambda: guard.draining) if guard is not None else None
    )
    interrupted = False
    with WorkerPool(config=config) as pool:
        for lo, hi in _round_boundaries(episodes, sync_every, start_episode):
            if guard is not None and guard.draining:
                interrupted = True
                break
            bundle = pickle.dumps((env, mechanism))
            items = []
            for e in range(lo, hi):
                env_seed, sample_seed = spawn_seeds(int(ep_seeds[e]), 2)
                items.append(train_item(bundle, e, env_seed, sample_seed))
            report = pool.run(items, should_stop=should_stop)
            if report.quarantined:
                failure = report.quarantined[0]
                raise RuntimeError(
                    "parallel training episode "
                    f"{lo + failure.index} failed after "
                    f"{failure.attempts} attempts: {failure.errors[-1]}"
                )
            if report.interrupted:
                # Guard drained mid-round: the deterministic contract
                # only holds for whole rounds, so discard the partial
                # round (none of it was ingested) and stop at the
                # previous boundary.
                interrupted = True
                break
            # Seed-ordered reduction: results are indexed by submission
            # order, so this is exactly episode order.
            for payload in report.results:
                ingest(payload)
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
