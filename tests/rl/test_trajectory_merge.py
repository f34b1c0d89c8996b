"""RolloutBuffer.extend: an ordered K-way split == one pushed stream.

A training checkpoint restores a PPO agent's pending transitions with
:meth:`repro.rl.buffer.RolloutBuffer.extend`
(:mod:`repro.rl.checkpoint`), so a resumed run is only bit-identical if
extending by chunks rebuilds, element for element, the buffer the
uninterrupted run filled with row-by-row ``push``.  These property tests
split a synthetic single stream at arbitrary cut points (including empty
chunks and truncated episodes whose final transition is not terminal)
and require extending the chunks in order to restore ``columns()`` and
``compute()`` of the stream pushed row by row, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.buffer import FIELDS, RolloutBuffer

_OBS_DIM = 3
_ACT_DIM = 2


def _single_stream(n: int, seed: int) -> dict:
    """A synthetic stream of ``n`` transitions in columns form."""
    rng = np.random.default_rng(seed)
    return {
        "obs": rng.normal(size=(n, _OBS_DIM)),
        "actions": rng.normal(size=(n, _ACT_DIM)),
        "rewards": rng.normal(size=(n,)),
        "values": rng.normal(size=(n,)),
        "log_probs": rng.normal(size=(n,)),
        "dones": (rng.random(size=(n,)) < 0.3).astype(np.uint8),
    }


def _split(state: dict, bounds: list) -> list:
    """Cut the stream at ``bounds`` (sorted, may repeat → empty chunks)."""
    n = state["rewards"].shape[0]
    edges = [0] + list(bounds) + [n]
    return [
        {key: value[lo:hi] for key, value in state.items()}
        for lo, hi in zip(edges, edges[1:])
    ]


def _pushed(state: dict) -> RolloutBuffer:
    """The stream pushed row by row — the sequential reference."""
    buffer = RolloutBuffer()
    for i in range(state["rewards"].shape[0]):
        buffer.push(*(state[key][i] for key in FIELDS))
    return buffer


def _extended(parts: list) -> RolloutBuffer:
    buffer = RolloutBuffer()
    for part in parts:
        buffer.extend(part)
    return buffer


def _assert_same(merged: RolloutBuffer, reference: RolloutBuffer) -> None:
    assert len(merged) == len(reference)
    mine, theirs = merged.columns(), reference.columns()
    assert list(mine) == list(theirs)
    for key in mine:
        assert mine[key].dtype == theirs[key].dtype
        np.testing.assert_array_equal(mine[key], theirs[key])
    if len(reference):
        a, b = merged.compute(last_value=0.3), reference.compute(last_value=0.3)
        for field in ("obs", "actions", "log_probs", "advantages", "returns"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


@st.composite
def _stream_and_cuts(draw):
    n = draw(st.integers(min_value=0, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    k = draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n),
                min_size=k,
                max_size=k,
            )
        )
    )
    return n, seed, cuts


class TestSplitMergeIdentity:
    @settings(max_examples=60, deadline=None)
    @given(_stream_and_cuts())
    def test_any_split_merges_back_elementwise(self, case):
        n, seed, cuts = case
        single = _single_stream(n, seed)
        _assert_same(_extended(_split(single, cuts)), _pushed(single))

    def test_empty_worker_chunks_are_transparent(self):
        single = _single_stream(7, seed=3)
        # Chunk layout: [0:0], [0:4], [4:4], [4:7], [7:7] — three chunks
        # hold nothing at all.
        _assert_same(_extended(_split(single, [0, 4, 4, 7])), _pushed(single))

    def test_truncated_episode_tail_preserved(self):
        # The last chunk ends mid-episode (no terminal flag): extending
        # must keep the truncated tail in place, not drop or reorder it,
        # and GAE must still bootstrap it from last_value.
        single = _single_stream(10, seed=5)
        single["dones"][:] = 0
        single["dones"][4] = 1  # one completed episode, then a truncation
        _assert_same(_extended(_split(single, [5])), _pushed(single))

    def test_order_matters(self):
        # Sanity: extending is order-sensitive; swapping parts must not
        # reproduce the stream.
        single = _single_stream(8, seed=9)
        parts = _split(single, [4])
        swapped = _extended(parts[::-1]).columns()
        assert not np.array_equal(swapped["rewards"], single["rewards"])

    def test_growth_past_first_capacity(self):
        # Enough rows to force several storage doublings mid-extend.
        single = _single_stream(300, seed=4)
        _assert_same(
            _extended(_split(single, [1, 70, 70, 200])), _pushed(single)
        )


class TestEdges:
    def test_all_empty_parts_yield_canonical_empty(self):
        single = _single_stream(0, seed=1)
        merged = _extended([single, dict(single)])
        columns = merged.columns()
        assert len(merged) == 0
        assert columns["rewards"].shape == (0,)
        assert columns["obs"].shape[0] == 0
        assert columns["dones"].dtype == np.uint8

    def test_key_mismatch_rejected(self):
        buffer = RolloutBuffer()
        bad = {k: v for k, v in _single_stream(3, seed=2).items() if k != "values"}
        with pytest.raises(KeyError):
            buffer.extend(bad)
        ragged = _single_stream(3, seed=2)
        ragged["values"] = ragged["values"][:2]
        with pytest.raises(ValueError):
            buffer.extend(ragged)
        assert len(buffer) == 0

    def test_no_parts_yield_canonical_empty(self):
        columns = _extended([]).columns()
        assert columns["rewards"].shape == (0,)
        assert columns["obs"].shape == (0, 0)
        assert columns["dones"].dtype == np.uint8

    def test_row_shape_mismatch_rejected(self):
        buffer = RolloutBuffer()
        buffer.extend(_single_stream(2, seed=6))
        wide = _single_stream(2, seed=6)
        wide["obs"] = np.zeros((2, _OBS_DIM + 1))
        with pytest.raises(ValueError):
            buffer.extend(wide)
        with pytest.raises(ValueError):
            buffer.push(np.zeros(1), np.zeros(_ACT_DIM), 0.0, 0.0, 0.0, False)
        assert len(buffer) == 2
