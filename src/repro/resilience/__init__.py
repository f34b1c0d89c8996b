"""``repro.resilience`` — the pool's chaos accounting audit.

:mod:`repro.resilience.chaos` drives a seeded mixture of deliberately
misbehaving work items (worker-killing crashes, hangs past the item
timeout, unpicklable results, flaky-then-succeeding items, plain
failures, healthy controls) through a 2-worker :mod:`repro.parallel`
pool and checks that every injected failure ends retried-to-success or
quarantined-with-history, never silently dropped.  CLI:
``python -m repro.resilience chaos`` (``make chaos-smoke``).

A sweep runs once; one that is killed part-way is simply rerun.
Training runs in one pass and has no checkpoint; a trained policy is
exported with ``ChironAgent.save``/``load`` (:mod:`repro.rl.checkpoint`).

Runs surface through the :mod:`repro.obs` counters
``resilience.chaos.runs`` and ``resilience.chaos.events``.  See
``docs/parallel.md`` ("Crash semantics").
"""

from repro.resilience.chaos import (
    ChaosConfig,
    ChaosReport,
    chaos_items,
    run_chaos,
)

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "chaos_items",
    "run_chaos",
]
