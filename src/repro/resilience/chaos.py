"""Deterministic chaos harness for the sweep pool.

:func:`run_chaos` builds a seeded mixture of deliberately misbehaving
work items (worker-killing crashes, hangs past the item timeout,
unpicklable results, flaky-then-succeeding items, plain failures,
healthy controls) and drives them through a 2-worker pool.  The
invariant under test is *accounting*: every injected failure must end
retried-to-success or quarantined-with-history — never silently
dropped.  CI runs it as ``python -m repro.resilience chaos``.

Chaos is *deterministic*: the item mixture is a pure function of the
seed, so a failing run reproduces exactly.  (Which worker a crash lands
on is scheduling-dependent — the accounting invariant is what must hold
regardless.)
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import obs as _obs
from repro.parallel.engine import run_sweep
from repro.parallel.pool import PoolConfig

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "chaos_items",
    "run_chaos",
]

#: Failure modes the harness injects, with the outcome each must reach.
#: ``ok`` kinds must deliver a result; ``quarantined`` kinds must end in
#: a quarantine record with their full error history.
EXPECTED_OUTCOME: Dict[str, str] = {
    "echo": "ok",
    "flaky": "ok",
    "fail": "quarantined",
    "crash": "quarantined",
    "hang": "quarantined",
    "unpicklable": "quarantined",
}


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos run (all defaults CI-sized)."""

    seed: int = 0
    workers: int = 2
    n_echo: int = 6
    n_flaky: int = 3
    n_fail: int = 2
    n_crash: int = 2
    n_hang: int = 1
    n_unpicklable: int = 1
    max_retries: int = 1
    item_timeout: float = 1.0

    @property
    def n_items(self) -> int:
        return (
            self.n_echo
            + self.n_flaky
            + self.n_fail
            + self.n_crash
            + self.n_hang
            + self.n_unpicklable
        )


@dataclass
class ChaosReport:
    """Accounting ledger of one chaos run."""

    n_items: int
    delivered: int
    quarantined: int
    retries: int
    respawns: int
    unaccounted: List[int] = field(default_factory=list)
    wrong_outcome: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff nothing was dropped and every kind met its contract."""
        return not self.unaccounted and not self.wrong_outcome

    def render(self) -> str:
        lines = [
            f"chaos: {self.n_items} items -> {self.delivered} delivered, "
            f"{self.quarantined} quarantined "
            f"({self.retries} retries, {self.respawns} respawns)",
        ]
        if self.unaccounted:
            lines.append(f"  UNACCOUNTED items: {self.unaccounted}")
        for problem in self.wrong_outcome:
            lines.append(f"  WRONG OUTCOME: {problem}")
        lines.append("chaos: OK" if self.ok else "chaos: FAILED")
        return "\n".join(lines)


def chaos_items(config: ChaosConfig, scratch_dir: str) -> List[dict]:
    """The seeded chaos mixture, shuffled deterministically.

    ``flaky`` items need a writable path to count their attempts across
    worker processes; ``scratch_dir`` hosts those marker files.
    """
    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    items: List[dict] = []
    for i in range(config.n_echo):
        items.append({"kind": "echo", "value": f"echo-{i}"})
    for i in range(config.n_flaky):
        items.append(
            {
                "kind": "flaky",
                "value": f"flaky-{i}",
                "path": str(scratch / f"flaky-{i}.marks"),
                # One failure fewer than the attempt budget: must succeed.
                "fail_times": config.max_retries,
            }
        )
    for i in range(config.n_fail):
        items.append({"kind": "fail", "message": f"chaos-fail-{i}"})
    for i in range(config.n_crash):
        items.append({"kind": "crash", "exitcode": 13})
    for _ in range(config.n_hang):
        items.append({"kind": "hang", "seconds": 3600.0})
    for _ in range(config.n_unpicklable):
        items.append({"kind": "unpicklable"})
    order = np.random.default_rng(config.seed).permutation(len(items))
    return [items[i] for i in order]


def run_chaos(
    config: ChaosConfig = ChaosConfig(),
    scratch_dir: Optional[str] = None,
) -> ChaosReport:
    """Inject the chaos mixture through the pool and audit it.

    Without ``scratch_dir`` the flaky items' marker files live in a
    temporary directory that is removed when the run ends.
    """
    if config.workers < 2:
        raise ValueError(
            "chaos needs workers >= 2: 'crash' items call os._exit and "
            "would kill the parent on the in-process path"
        )
    if scratch_dir is None:
        with tempfile.TemporaryDirectory(prefix="chaos-") as scratch:
            return run_chaos(config, scratch)
    items = chaos_items(config, scratch_dir=scratch_dir)
    # Every crash/hang/unpicklable attempt costs one worker (an
    # unpicklable result dies in the worker's send); budget them all plus
    # slack so exhaustion is never the reason an item quarantines here
    # (exhaustion has its own test).
    kill_attempts = (
        config.n_crash + config.n_hang + config.n_unpicklable
    ) * (config.max_retries + 1)
    pool = PoolConfig(
        workers=config.workers,
        max_retries=config.max_retries,
        backoff_base=0.01,
        backoff_cap=0.1,
        max_respawns=kill_attempts + config.workers,
        item_timeout=config.item_timeout,
    )
    result = run_sweep(items, pool_config=pool)

    quarantined_idx = {f.index for f in result.quarantined}
    unaccounted = [
        i
        for i in range(len(items))
        if result.items[i] is None and i not in quarantined_idx
    ]
    wrong: List[str] = []
    for i, item in enumerate(items):
        expected = EXPECTED_OUTCOME[item["kind"]]
        actual = "quarantined" if i in quarantined_idx else (
            "ok" if result.items[i] is not None else "dropped"
        )
        if actual != expected:
            wrong.append(
                f"item {i} ({item['kind']}): expected {expected}, "
                f"got {actual}"
            )
    for failure in result.quarantined:
        if not failure.errors:
            wrong.append(
                f"item {failure.index} quarantined without error history"
            )

    report = ChaosReport(
        n_items=len(items),
        delivered=sum(1 for r in result.items if r is not None),
        quarantined=len(result.quarantined),
        retries=result.retries,
        respawns=result.respawns,
        unaccounted=unaccounted,
        wrong_outcome=wrong,
    )
    if _obs.enabled():
        _obs.counter("resilience.chaos.runs").inc()
        _obs.counter("resilience.chaos.events").inc(
            config.n_fail
            + config.n_crash
            + config.n_hang
            + config.n_unpicklable
            + config.n_flaky
        )
    return report
