"""``run_sweep`` — deterministic fan-out of experiment grids.

The engine turns a list of hermetic work items (see
:mod:`repro.parallel.items`) into a :class:`SweepResult`, executing them
in-process (``workers<=1``) or over a crash-contained process pool
(:mod:`repro.parallel.pool`).  Because items are hermetic, the *results*
are a pure function of the item list — the worker count only changes
wall-clock time, which is exactly what :meth:`SweepResult.fingerprint`
asserts (``tests/parallel/test_engine.py`` compares it across worker
counts and the differential matrix's ``parallel_w4`` variant proves the
same property at trace granularity).

:func:`grid_items` builds the standard (mechanism × budget × seed) grid
used by Table I and the budget sweeps, reproducing the exact RNG stream
names the sequential loops always used, so refactored experiments yield
bit-identical numbers at ``workers=1``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.parallel.items import sweep_item
from repro.parallel.merge import merge_snapshots
from repro.parallel.pool import ItemFailure, PoolConfig, run_items

__all__ = ["SweepResult", "run_sweep", "grid_items"]


@dataclass
class SweepResult:
    """Everything one sweep produced, in submission order.

    ``items[i]`` is work item ``i``'s result dict, or ``None`` if the
    item was quarantined after exhausting its retries (details in
    ``quarantined``).
    """

    items: List[Optional[Dict[str, Any]]]
    quarantined: List[ItemFailure] = field(default_factory=list)
    workers: int = 1
    retries: int = 0
    respawns: int = 0
    worker_health: Dict[int, float] = field(default_factory=dict)
    elapsed: float = 0.0
    obs_snapshot: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def fingerprint(self) -> str:
        """SHA-256 over the result *data* (never timing or health).

        Identical for any worker count on the same item list — the
        machine-checkable form of the determinism contract.  Observability
        snapshots are excluded because span profiles contain wall-clock
        durations.
        """
        canonical = [
            None
            if item is None
            else {k: v for k, v in item.items() if k != "obs_snapshot"}
            for item in self.items
        ]
        blob = json.dumps(canonical, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def raise_on_quarantine(self) -> "SweepResult":
        """Fail loudly when any grid cell was lost (experiments use this:
        a silently missing cell would skew the aggregated tables)."""
        if self.quarantined:
            details = "; ".join(
                f"item {f.index} after {f.attempts} attempts "
                f"(last error: {f.errors[-1] if f.errors else 'unknown'})"
                for f in self.quarantined
            )
            raise RuntimeError(f"sweep quarantined {details}")
        return self


def run_sweep(
    items: Sequence[Dict[str, Any]],
    workers: int = 1,
    pool_config: Optional[PoolConfig] = None,
) -> SweepResult:
    """Execute hermetic work items, sequentially or over a process pool.

    ``pool_config`` overrides every knob including ``workers``; otherwise
    ``workers`` alone selects in-process (``<=1``) vs pooled execution
    with default retry/backoff settings.  A sweep runs once; one that
    is killed part-way is simply rerun.
    """
    config = pool_config or PoolConfig(workers=workers)
    report = run_items(list(items), config=config)
    snapshots = [
        item.get("obs_snapshot")
        for item in report.results
        if isinstance(item, dict)
    ]
    merged = (
        merge_snapshots(snapshots)
        if any(s is not None for s in snapshots)
        else None
    )
    return SweepResult(
        items=list(report.results),
        quarantined=report.quarantined,
        workers=config.workers,
        retries=report.retries,
        respawns=report.respawns,
        worker_health=report.worker_health,
        elapsed=report.elapsed,
        obs_snapshot=merged,
    )


def grid_items(
    mechanisms: Sequence[str],
    budgets: Sequence[float],
    n_seeds: int,
    seed: int,
    train_episodes: int,
    eval_episodes: int,
    tier: str = "quick",
    build_kwargs: Optional[Dict[str, Any]] = None,
    collect_obs: bool = False,
) -> List[Dict[str, Any]]:
    """The standard (mechanism × budget × seed_offset) experiment grid.

    Stream names are ``f"{name}/{budget}/{seed_offset}"`` and the
    environment seed is ``seed + seed_offset`` — byte-for-byte the
    derivations the sequential Table I / budget-sweep loops used, so
    ``run_sweep(grid_items(...), workers=1)`` reproduces their historical
    numbers exactly, and any other worker count reproduces *those*.
    """
    from repro.core.builder import BuildConfig

    build_kwargs = dict(build_kwargs or {})
    items: List[Dict[str, Any]] = []
    for name in mechanisms:
        for budget in budgets:
            for seed_offset in range(n_seeds):
                config = BuildConfig(
                    budget=budget, seed=seed + seed_offset, **build_kwargs
                )
                items.append(
                    sweep_item(
                        build=config.to_dict(),
                        mechanism=name,
                        rng_root=seed,
                        rng_stream=f"{name}/{budget}/{seed_offset}",
                        train_episodes=train_episodes,
                        eval_episodes=eval_episodes,
                        tier=tier,
                        key={
                            "mechanism": name,
                            "budget": budget,
                            "seed_offset": seed_offset,
                        },
                        collect_obs=collect_obs,
                    )
                )
    return items
