"""Exterior-state assembly (§V-A).

The exterior agent observes, per the paper::

    s_k^E = {ζ_{k−L..k−1}, p_{k−L..k−1}, T_{k−L..k−1}, η_remaining, k}

i.e. an ``L``-round history of node frequency profiles, price profiles and
per-node times, plus the remaining budget and the round index.  Nonexistent
history (``k < L``) reads as zeros.  All components are scaled to O(1) so
one observation-normalization layer suffices downstream.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

import numpy as np

from repro.economics.hardware import GHZ
from repro.utils.validation import check_positive


class ExteriorStateEncoder:
    """Fixed-size rolling encoding of the edge-learning system state."""

    def __init__(
        self,
        n_nodes: int,
        history: int,
        budget_scale: float,
        price_scale: float,
        time_scale: float,
        max_rounds: int,
        include_reliability: bool = False,
    ):
        check_positive("n_nodes", n_nodes)
        check_positive("history", history)
        check_positive("budget_scale", budget_scale)
        check_positive("price_scale", price_scale)
        check_positive("time_scale", time_scale)
        check_positive("max_rounds", max_rounds)
        self.n_nodes = int(n_nodes)
        self.history = int(history)
        self.budget_scale = float(budget_scale)
        self.price_scale = float(price_scale)
        self.time_scale = float(time_scale)
        self.max_rounds = int(max_rounds)
        #: robustness extension: append per-node delivery-reliability
        #: scores (already in [0, 1]) so the exterior agent can learn to
        #: price unreliable nodes down.
        self.include_reliability = bool(include_reliability)
        self._rows: Deque[np.ndarray] = deque(maxlen=self.history)
        # Scratch for the two scalar tail entries: np.concatenate copies it
        # into the fresh observation, so reusing the buffer across encode()
        # calls never aliases escaping state.
        self._tail = np.empty(2)
        self.reset()

    @property
    def dim(self) -> int:
        """Observation dimension: ``3·N·L + 2`` (+ ``N`` with reliability)."""
        extra = self.n_nodes if self.include_reliability else 0
        return 3 * self.n_nodes * self.history + extra + 2

    def reset(self) -> None:
        self._rows.clear()
        zero = np.zeros(3 * self.n_nodes)
        for _ in range(self.history):
            self._rows.append(zero.copy())

    def record_round(
        self,
        zetas: np.ndarray,
        prices: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Append one completed round's profiles to the history window.

        ``times`` entries for non-participating nodes should be 0 (they did
        not train); infinities are rejected.
        """
        # The env hot path always passes float64 ndarrays; only coerce
        # when a caller hands in something else.
        if type(zetas) is not np.ndarray or zetas.dtype != np.float64:
            zetas = np.asarray(zetas, dtype=np.float64)
        if type(prices) is not np.ndarray or prices.dtype != np.float64:
            prices = np.asarray(prices, dtype=np.float64)
        if type(times) is not np.ndarray or times.dtype != np.float64:
            times = np.asarray(times, dtype=np.float64)
        n = self.n_nodes
        shape = (n,)
        if zetas.shape != shape or prices.shape != shape or times.shape != shape:
            for name, arr in (("zetas", zetas), ("prices", prices), ("times", times)):
                if arr.shape != shape:
                    raise ValueError(
                        f"{name} must have shape ({n},), got {arr.shape}"
                    )
        # Scale straight into one preallocated row (same divisions as the
        # previous concatenate-of-quotients form, so bit-identical).
        row = np.empty(3 * n, dtype=np.float64)
        np.divide(zetas, GHZ, out=row[:n])
        np.divide(prices, self.price_scale, out=row[n : 2 * n])
        np.divide(times, self.time_scale, out=row[2 * n :])
        # One finiteness scan over the assembled row (scaling by finite
        # positive constants preserves finiteness) — this runs every round.
        if not np.isfinite(row).all():
            for name, arr in (
                ("zetas", zetas),
                ("prices", prices),
                ("times", times),
            ):
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"{name} contains non-finite entries")
        self._rows.append(row)

    def encode(
        self,
        remaining_budget: float,
        round_index: int,
        reliability: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Current observation vector (history oldest-first, then scalars).

        When the encoder was built with ``include_reliability``, per-node
        reliability scores are appended before the scalar tail; omitting
        them encodes a fully reliable fleet (all ones).
        """
        parts = list(self._rows)
        if self.include_reliability:
            if reliability is None:
                reliability = np.ones(self.n_nodes)
            reliability = np.asarray(reliability, dtype=np.float64)
            if reliability.shape != (self.n_nodes,):
                raise ValueError(
                    f"reliability must have shape ({self.n_nodes},), "
                    f"got {reliability.shape}"
                )
            if not np.all(np.isfinite(reliability)):
                raise ValueError("reliability contains non-finite entries")
            parts.append(np.clip(reliability, 0.0, 1.0))
        elif reliability is not None:
            raise ValueError(
                "reliability given but encoder was built without "
                "include_reliability"
            )
        tail = self._tail
        tail[0] = remaining_budget / self.budget_scale
        tail[1] = round_index / self.max_rounds
        parts.append(tail)
        return np.concatenate(parts)

    def last_round(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Most recent (zetas, prices, times) row, de-normalized."""
        row = self._rows[-1]
        n = self.n_nodes
        return (
            row[:n] * GHZ,
            row[n : 2 * n] * self.price_scale,
            row[2 * n :] * self.time_scale,
        )
