"""Deterministic random-number management.

Every stochastic component in the library (dataset synthesis, hardware
profiles, policy sampling, environment noise) receives an explicit
``numpy.random.Generator``.  Nothing reads global numpy random state, so a
single integer seed reproduces an entire experiment bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

RNGLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(rng: RNGLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed, a
    ``SeedSequence``, or an existing ``Generator`` (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn_seeds(seed: RNGLike, n: int) -> List[int]:
    """``n`` independent integer seeds derived via ``SeedSequence.spawn``.

    The unified per-episode / per-worker derivation used across the
    library (``evaluate_mechanism``, the :mod:`repro.parallel` engine):
    child ``i`` is ``SeedSequence(seed).spawn(n)[i]``, whose stream depends
    only on ``(seed, i)`` — never on how the items are later chunked over
    workers — and each child is collapsed to a 64-bit integer so it can be
    fed to ``reset(seed=...)``-style surfaces.

    This replaces the older ``SeedSequence(seed).generate_state(n,
    dtype=np.uint32)`` derivation: uint32 words from *different* user
    seeds collide at birthday rate around 2**16 draws and are not part of
    numpy's cross-stream independence contract, whereas spawned children
    are guaranteed independent of each other and of the parent.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif seed is None or isinstance(seed, (int, np.integer)):
        root = np.random.SeedSequence(seed if seed is None else int(seed))
    else:
        raise TypeError(
            f"cannot derive seeds from {type(seed).__name__}; "
            "pass an int, SeedSequence, or None"
        )
    return [
        int(child.generate_state(1, dtype=np.uint64)[0])
        for child in root.spawn(n)
    ]


def spawn_generators(rng: RNGLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Children are statistically independent of each other and of the parent,
    so components seeded from the same parent never share streams.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(rng, np.random.SeedSequence):
        seq = rng
    elif isinstance(rng, np.random.Generator):
        # Use the generator itself to produce child seeds; keeps determinism
        # relative to the parent's current position.
        seeds = rng.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    else:
        seq = np.random.SeedSequence(rng)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


class SeedSequenceFactory:
    """Names-to-streams seed factory.

    A single experiment seed fans out into named, order-independent
    sub-streams::

        factory = SeedSequenceFactory(42)
        data_rng = factory.generator("datasets")
        policy_rng = factory.generator("policy")

    Requesting the same name twice returns generators with identical
    streams, and the mapping does not depend on request order.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._root = np.random.SeedSequence(seed)

    @property
    def seed(self) -> Optional[int]:
        return self._seed

    def _sequence_for(self, name: str) -> np.random.SeedSequence:
        # Derive a stable 64-bit key from the name so ordering is irrelevant.
        # The parent's spawn_key is extended (not replaced) so nested child()
        # factories occupy disjoint namespaces.
        key = _fnv1a_64(name)
        entropy = self._root.entropy if self._root.entropy is not None else 0
        return np.random.SeedSequence(
            entropy=entropy, spawn_key=(*self._root.spawn_key, int(key))
        )

    def generator(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the named stream."""
        return np.random.default_rng(self._sequence_for(name))

    def child(self, name: str) -> "SeedSequenceFactory":
        """Return a nested factory namespaced under ``name``."""
        sub = SeedSequenceFactory.__new__(SeedSequenceFactory)
        sub._seed = self._seed
        sub._root = self._sequence_for(name)
        return sub

    def integers(self, name: str, n: int, high: int = 2**31 - 1) -> List[int]:
        """Return ``n`` deterministic integer seeds for the named stream."""
        gen = self.generator(name)
        return [int(v) for v in gen.integers(0, high, size=n)]


def _fnv1a_64(text: str) -> int:
    """64-bit FNV-1a hash (stable across processes, unlike ``hash``)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def choice_without_replacement(
    rng: np.random.Generator, items: Iterable, k: int
) -> list:
    """Sample ``k`` distinct items from ``items`` (materialized to a list)."""
    pool = list(items)
    if k > len(pool):
        raise ValueError(f"cannot sample {k} items from a pool of {len(pool)}")
    idx = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in idx]
