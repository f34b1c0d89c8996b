"""Deterministic seed derivation for the process-parallel engine.

The engine's determinism contract is *worker-count invariance*: a sweep
of (scenario, mechanism, seed) work items produces bit-identical results
whether it runs in-process (``workers=1``) or fanned over any number of
worker processes.  That holds because every random stream a work item
touches is derived from the item's own root seed — never from shared
process state, execution order, or which worker slot picked the item up.

Derivation scheme (see ``docs/parallel.md``):

* each work item's streams hang off ``SeedSequence(item_seed)``;
* per-episode seeds inside an item come from
  :func:`repro.utils.rng.spawn_seeds` (``SeedSequence.spawn`` children),
  so episode ``i`` of item ``j`` is a pure function of ``(item_seed, i)``.

Nothing here consults the worker pool: :mod:`repro.parallel.pool` moves
already-seeded items around; this module guarantees moving them is safe.
"""

from __future__ import annotations

from typing import List

from repro.utils.rng import spawn_seeds

__all__ = ["episode_seeds"]


def episode_seeds(item_seed: int, episodes: int) -> List[int]:
    """Per-episode integer seeds for one work item.

    Episode ``i``'s seed depends only on ``(item_seed, i)``; chunking the
    episodes over workers in any way cannot change any episode's streams.
    """
    return spawn_seeds(int(item_seed), episodes)
