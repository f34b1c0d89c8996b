"""Guard: disabled-mode observability hooks cost no allocation.

The promise in docs/observability.md is that instrumented hot paths are
zero-cost while observability is off: every facade lookup returns a
module-level singleton and the no-op span allocates nothing.  This suite
pins that down so a future change (e.g. building a fresh no-op object per
call, or a span per node in the fused response loop) fails loudly.

Marked `obs`: these are cheap correctness guards that run with the
default suite.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import obs
from repro.core.builder import build_environment

pytestmark = pytest.mark.obs


def test_disabled_lookups_return_shared_singletons():
    assert not obs.enabled()
    assert obs.counter("a") is obs.counter("b")
    assert obs.gauge("a") is obs.gauge("b")
    assert obs.ewma("a") is obs.ewma("b")
    assert obs.histogram("a") is obs.histogram("b")
    assert obs.span("a") is obs.span("b")
    assert obs.span("a") is obs.NOOP_SPAN


def test_disabled_span_allocates_nothing():
    assert not obs.enabled()
    span = obs.span  # facade lookup outside the measured window

    # Warm up (interned strings, method caches).
    for _ in range(10):
        with span("warmup"):
            pass

    tracemalloc.start()
    for _ in range(1000):
        with span("hot"):
            pass
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # A no-op context manager round-trip must not allocate per iteration;
    # allow a small constant slack for tracemalloc's own bookkeeping.
    assert peak < 4096, f"disabled span allocated {peak} bytes over 1000 iters"


def test_disabled_response_loop_adds_no_measurable_allocation():
    """The fused node-response loop with obs off allocates no obs objects."""
    assert not obs.enabled()
    from repro.baselines import FixedPriceMechanism
    from repro.core.mechanism import Observation

    env = build_environment(n_nodes=6, budget=50.0, seed=3).env
    state, _ = env.reset(seed=0)
    mech = FixedPriceMechanism(env, markup=2.0)
    mech.begin_episode(Observation(state, env.ledger.remaining, env.round_index))
    prices = mech.propose_prices(
        Observation(state, env.ledger.remaining, env.round_index)
    )

    env.step(prices)  # warm-up step: lazy caches, interning

    tracemalloc.start()
    snap_before = tracemalloc.take_snapshot()
    env.step(prices)
    snap_after = tracemalloc.take_snapshot()
    tracemalloc.stop()

    import repro.obs.registry as registry_mod
    import repro.obs.tracing as tracing_mod

    obs_files = {registry_mod.__file__, tracing_mod.__file__, obs.__file__}
    obs_bytes = sum(
        stat.size_diff
        for stat in snap_after.compare_to(snap_before, "filename")
        if stat.traceback[0].filename in obs_files
    )
    assert obs_bytes <= 0, (
        f"obs modules allocated {obs_bytes} bytes during a disabled-mode step"
    )
