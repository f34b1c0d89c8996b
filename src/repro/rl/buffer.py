"""Trajectory storage and generalized advantage estimation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping

import numpy as np

from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_in_range, check_positive

#: Column names, in payload and checkpoint order.
FIELDS = ("obs", "actions", "rewards", "values", "log_probs", "dones")

#: Rows allocated when the first row arrives; storage doubles past it.
_INITIAL_CAPACITY = 64


def _empty_columns() -> Dict[str, np.ndarray]:
    return {
        "obs": np.zeros((0, 0)),
        "actions": np.zeros((0, 0)),
        "rewards": np.zeros(0),
        "values": np.zeros(0),
        "log_probs": np.zeros(0),
        "dones": np.zeros(0, dtype=np.uint8),
    }


@dataclass(frozen=True)
class Batch:
    """Flattened training arrays handed to the PPO update."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray

    def __len__(self) -> int:
        return self.obs.shape[0]


class RolloutBuffer:
    """Columnar episode buffer with GAE(λ) advantage computation.

    Mirrors the experience replay buffers ``D^E`` / ``D^I`` of Algorithm 1:
    transitions accumulate over an episode and are consumed in one on-policy
    update when the budget runs out, then cleared.

    Rows live in one growable array per field (:data:`FIELDS`; ``dones``
    as ``uint8``, the rest ``float64``).  :meth:`push` appends one row,
    :meth:`extend` appends a block of rows in :meth:`columns` form — the
    form checkpoints, parallel collection and per-replica staging hand
    trajectories over in.
    """

    def __init__(self, gamma: float = 0.95, gae_lambda: float = 0.95):
        check_in_range("gamma", gamma, 0.0, 1.0)
        check_in_range("gae_lambda", gae_lambda, 0.0, 1.0)
        self.gamma = float(gamma)
        self.gae_lambda = float(gae_lambda)
        self._size = 0
        # Allocated by the first row, which fixes the obs/action widths.
        self._cols: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self._size

    def _reserve(self, rows: int, obs_shape: tuple, act_shape: tuple) -> None:
        """Make room for ``rows`` more rows with the given row shapes."""
        cols = self._cols
        if not cols:
            cap = max(_INITIAL_CAPACITY, rows)
            self._cols = {
                "obs": np.empty((cap,) + obs_shape),
                "actions": np.empty((cap,) + act_shape),
                "rewards": np.empty(cap),
                "values": np.empty(cap),
                "log_probs": np.empty(cap),
                "dones": np.empty(cap, dtype=np.uint8),
            }
            return
        if cols["obs"].shape[1:] != obs_shape or cols["actions"].shape[1:] != act_shape:
            raise ValueError(
                f"rows of shape obs {obs_shape}, actions {act_shape} do not "
                f"match the buffer's obs {cols['obs'].shape[1:]}, actions "
                f"{cols['actions'].shape[1:]}"
            )
        need = self._size + rows
        cap = cols["rewards"].shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name, col in cols.items():
            grown = np.empty((cap,) + col.shape[1:], dtype=col.dtype)
            grown[: self._size] = col[: self._size]
            cols[name] = grown

    def push(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        value: float,
        log_prob: float,
        done: bool,
    ) -> None:
        """Append one transition (the arrays are copied in)."""
        obs = np.asarray(obs, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        self._reserve(1, obs.shape, action.shape)
        i = self._size
        cols = self._cols
        cols["obs"][i] = obs
        cols["actions"][i] = action
        cols["rewards"][i] = float(reward)
        cols["values"][i] = float(value)
        cols["log_probs"][i] = float(log_prob)
        cols["dones"][i] = bool(done)
        self._size = i + 1

    def extend(self, columns: Mapping[str, np.ndarray]) -> None:
        """Append a block of rows given in :meth:`columns` form.

        Keys beyond :data:`FIELDS` (e.g. a collected episode's
        ``raw_obs``) are ignored.  Extending by consecutive chunks of one
        stream is bit-equal to pushing the stream row by row.
        """
        arrays = {name: np.asarray(columns[name]) for name in FIELDS}
        rows = arrays["rewards"].shape[0]
        for name, array in arrays.items():
            if array.shape[0] != rows:
                raise ValueError(
                    f"column {name!r} has {array.shape[0]} rows, "
                    f"'rewards' has {rows}"
                )
        if rows == 0:
            return
        self._reserve(rows, arrays["obs"].shape[1:], arrays["actions"].shape[1:])
        lo, hi = self._size, self._size + rows
        for name, array in arrays.items():
            self._cols[name][lo:hi] = array
        self._size = hi

    def columns(self) -> Dict[str, np.ndarray]:
        """The stored rows as one array per field (copies).

        Callers may keep the result past :meth:`clear`.  An empty buffer
        returns zero-row columns with ``(0, 0)`` obs and actions.
        """
        n = self._size
        if n == 0:
            return _empty_columns()
        return {name: col[:n].copy() for name, col in self._cols.items()}

    def clear(self) -> None:
        """Drop every row; the storage is kept for reuse."""
        self._size = 0

    def compute(self, last_value: float = 0.0) -> Batch:
        """Assemble arrays with GAE advantages and discounted returns.

        ``last_value`` bootstraps the value beyond the final stored step when
        the episode was truncated rather than terminated.
        """
        n = self._size
        if n == 0:
            raise ValueError("cannot compute a batch from an empty buffer")
        cols = self._cols
        values = cols["values"][:n].copy()
        # Python floats run the recursion with the same IEEE operations as
        # numpy scalars, without the per-element boxing.
        reward_list = cols["rewards"][:n].tolist()
        value_list = values.tolist()
        done_list = cols["dones"][:n].tolist()
        gamma, lam = self.gamma, self.gae_lambda
        advantages = np.zeros(n)
        gae = 0.0
        next_value = last_value
        for step in reversed(range(n)):
            non_terminal = 0.0 if done_list[step] else 1.0
            delta = (
                reward_list[step] + gamma * next_value * non_terminal
                - value_list[step]
            )
            gae = delta + gamma * lam * non_terminal * gae
            advantages[step] = gae
            next_value = value_list[step]
        return Batch(
            obs=cols["obs"][:n].copy(),
            actions=cols["actions"][:n].copy(),
            log_probs=cols["log_probs"][:n].copy(),
            advantages=advantages,
            returns=advantages + values,
        )

    @staticmethod
    def minibatches(
        batch: Batch, size: int, rng: RNGLike = None
    ) -> Iterator[Batch]:
        """Shuffle and yield minibatches of at most ``size`` rows."""
        check_positive("size", size)
        gen = as_generator(rng)
        order = gen.permutation(len(batch))
        for start in range(0, len(batch), size):
            idx = order[start : start + size]
            yield Batch(
                obs=batch.obs[idx],
                actions=batch.actions[idx],
                log_probs=batch.log_probs[idx],
                advantages=batch.advantages[idx],
                returns=batch.returns[idx],
            )
