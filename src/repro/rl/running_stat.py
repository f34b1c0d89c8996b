"""Streaming mean/variance for observation normalization (Welford/Chan)."""

from __future__ import annotations

from typing import Tuple

import numpy as np


class RunningMeanStd:
    """Running mean and variance over vectors.

    Uses Chan et al.'s batch update, numerically stable for long streams.
    Matches the normalizer used by standard PPO implementations.
    """

    def __init__(self, shape: Tuple[int, ...], epsilon: float = 1e-4):
        self.mean = np.zeros(shape, dtype=np.float64)
        self.var = np.ones(shape, dtype=np.float64)
        self.count = float(epsilon)
        self._std_cache: "Tuple[np.ndarray, np.ndarray] | None" = None

    def update(self, batch: np.ndarray) -> None:
        """Fold a batch of rows (leading axis = samples) into the stats."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == len(self.mean.shape):
            batch = batch[None]
        if batch.shape[1:] != self.mean.shape:
            raise ValueError(
                f"batch rows have shape {batch.shape[1:]}, "
                f"expected {self.mean.shape}"
            )
        if batch.shape[0] == 0:
            return  # nothing to fold in; the Chan update would divide by 0
        if batch.shape[0] == 1:
            # Single-row fast path: a one-sample batch has mean == row and
            # variance exactly +0.0, and ``m_a`` is never -0.0, so dropping
            # the ``m_b`` term and the ``* batch_count`` factors below is
            # bit-identical to the general Chan update.
            delta = batch[0] - self.mean
            total = self.count + 1
            self.mean = self.mean + delta / total
            m2 = self.var * self.count + (delta * delta) * self.count / total
            self.var = m2 / total
            self.count = total
            return
        batch_count = batch.shape[0]
        # Hand-rolled mean/var (one fewer array pass than np.mean + np.var;
        # same reduction order, so bit-identical).  In-place ops reuse the
        # freshly allocated intermediates — same values, fewer allocations.
        batch_mean = batch.sum(axis=0)
        batch_mean /= batch_count
        centered = batch - batch_mean
        np.multiply(centered, centered, out=centered)
        batch_var = centered.sum(axis=0)
        batch_var /= batch_count

        delta = batch_mean - self.mean
        total = self.count + batch_count
        new_mean = self.mean + delta * batch_count / total
        m_a = self.var * self.count
        m_b = batch_var * batch_count
        m2 = m_a + m_b + (delta * delta) * self.count * batch_count / total
        self.mean = new_mean
        self.var = m2 / total
        self.count = total

    @property
    def std(self) -> np.ndarray:
        """Standard deviation (cached until :attr:`var` is reassigned).

        :meth:`update` replaces the ``var`` array each call, so the cache
        is keyed on array identity; treat the returned array as read-only,
        and do not mutate ``var`` in place.
        """
        cache = self._std_cache
        var = self.var
        if cache is not None and cache[0] is var:
            return cache[1]
        std = np.sqrt(np.maximum(var, 1e-12))
        self._std_cache = (var, std)
        return std

    def normalize(self, x: np.ndarray, clip: float = 10.0) -> np.ndarray:
        """Standardize ``x`` with the current stats, clipped to ``±clip``."""
        x = np.asarray(x, dtype=np.float64)
        out = x - self.mean  # fresh array; reuse it for the whole chain
        np.divide(out, self.std, out=out)
        return out.clip(-clip, clip, out=out)
