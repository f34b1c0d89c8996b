"""``repro.parallel`` — deterministic process-parallel experiment engine.

Fan (scenario, mechanism, seed) work items over a spawn-safe worker pool
without changing a single result bit: items are hermetic (they carry
seeds and configs, never live objects), so worker count affects
wall-clock only.  See ``docs/parallel.md`` for the determinism contract,
crash semantics, and the test/differential evidence.

Layout:

* :mod:`repro.parallel.seeds` — ``SeedSequence.spawn``-based derivation
  (worker-count- and grid-growth-invariant).
* :mod:`repro.parallel.items` — hermetic work item payloads + the single
  ``execute`` entry point workers resolve by path.
* :mod:`repro.parallel.pool` — parent-driven pool: crash attribution,
  bounded retry with backoff, poisoned-item quarantine, worker respawn,
  EWMA slot health.
* :mod:`repro.parallel.merge` — cross-process aggregation (episode rows,
  registry snapshots, ``RunningMeanStd`` Chan merge).
* :mod:`repro.parallel.engine` — ``run_sweep`` + the standard experiment
  grid builder, with result fingerprints proving worker-count invariance.
* :mod:`repro.parallel.training` — ``train_parallel``: A3C-style
  trajectory collection *within* one training run, worker-count
  invariant.
"""

from repro.parallel.engine import SweepResult, grid_items, run_sweep
from repro.parallel.items import (
    capture_item,
    episodes_from_dicts,
    eval_item,
    execute,
    sweep_item,
    train_item,
)
from repro.parallel.merge import (
    merge_profiles,
    merge_running_stats,
    merge_snapshots,
)
from repro.parallel.pool import (
    ItemFailure,
    PoolConfig,
    PoolReport,
    WorkerPool,
    run_items,
)
from repro.parallel.seeds import episode_seeds, item_sequence, sweep_item_seeds
from repro.parallel.training import (
    DEFAULT_SYNC_EVERY,
    train_parallel,
    training_fingerprint,
    training_rows,
)

__all__ = [
    "SweepResult",
    "grid_items",
    "run_sweep",
    "sweep_item",
    "eval_item",
    "capture_item",
    "train_item",
    "episodes_from_dicts",
    "execute",
    "merge_snapshots",
    "merge_profiles",
    "merge_running_stats",
    "PoolConfig",
    "PoolReport",
    "ItemFailure",
    "WorkerPool",
    "run_items",
    "episode_seeds",
    "sweep_item_seeds",
    "item_sequence",
    "DEFAULT_SYNC_EVERY",
    "train_parallel",
    "training_fingerprint",
    "training_rows",
]
