"""Deterministic chaos harness for the resilience layer.

Two proofs, both runnable from CI (``python -m repro.resilience``):

* :func:`run_chaos` — build a seeded mixture of deliberately misbehaving
  work items (worker-killing crashes, hangs past the item timeout,
  unpicklable results, flaky-then-succeeding items, plain failures,
  healthy controls) and drive them through a journaled pool.  The
  invariant under test is *accounting*: every injected failure must end
  retried-to-success or quarantined-with-history — never silently
  dropped — and the journal must replay to the same ledger.
* :func:`run_kill_resume` — the parent-death drill: launch a real
  2-worker ``run_sweep`` over a small mechanism grid in a subprocess,
  ``SIGKILL`` its process group (driver, workers, resource tracker) once
  the journal shows progress, resume from the journal, and require the
  resumed :meth:`~repro.parallel.engine.SweepResult.fingerprint` to be
  bit-identical to an uninterrupted run's and no process of the group to
  survive.
* :func:`run_kill_resume_training` — the same drill for *training*:
  launch a checkpointed, journaled
  :func:`~repro.parallel.training.train_parallel` run in a subprocess,
  ``SIGKILL`` its process group once the journal shows at least one
  settled training round, resume from the checkpoint directory with
  workers, and require both the resumed run's
  :func:`~repro.parallel.training.training_fingerprint` and its final
  checkpoint's :func:`~repro.resilience.training.checkpoint_digest` to
  equal an uninterrupted run's, again with no survivor in the group.

Chaos is *deterministic*: the item mixture is a pure function of the
seed, so a failing run reproduces exactly.  (Which worker a crash lands
on is scheduling-dependent — the accounting invariant is what must hold
regardless.)
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import obs as _obs
from repro.parallel.engine import SweepResult, grid_items, run_sweep
from repro.parallel.pool import PoolConfig
from repro.resilience.journal import read_journal
from repro.resilience.sweep import KIND_ITEM_OK
from repro.utils.logging import get_logger

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "chaos_items",
    "run_chaos",
    "run_kill_resume",
    "kill_resume_grid",
    "run_kill_resume_training",
    "kill_resume_training_setup",
    "TRAIN_DRILL",
]

_log = get_logger("resilience.chaos")

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
    journal_records: int = 0
    replay_matches: bool = True

    @property
    def ok(self) -> bool:
        """True iff nothing was dropped and every kind met its contract."""
        return (
            not self.unaccounted
            and not self.wrong_outcome
            and self.replay_matches
        )

    def render(self) -> str:
        lines = [
            f"chaos: {self.n_items} items -> {self.delivered} delivered, "
            f"{self.quarantined} quarantined "
            f"({self.retries} retries, {self.respawns} respawns, "
            f"{self.journal_records} journal records)",
        ]
        if self.unaccounted:
            lines.append(f"  UNACCOUNTED items: {self.unaccounted}")
        for problem in self.wrong_outcome:
            lines.append(f"  WRONG OUTCOME: {problem}")
        if not self.replay_matches:
            lines.append("  JOURNAL REPLAY DIVERGED from live results")
        lines.append("chaos: OK" if self.ok else "chaos: FAILED")
        return "\n".join(lines)


def chaos_items(
    config: ChaosConfig, scratch_dir: Optional[str] = None
) -> List[dict]:
    """The seeded chaos mixture, shuffled deterministically.

    ``flaky`` items need a writable path to count their attempts across
    worker processes; ``scratch_dir`` hosts those marker files.
    """
    scratch = Path(scratch_dir or tempfile.mkdtemp(prefix="chaos-"))
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
    journal_path: Optional[str] = None,
    scratch_dir: Optional[str] = None,
) -> ChaosReport:
    """Inject the chaos mixture through a journaled pool and audit it."""
    if config.workers < 2:
        raise ValueError(
            "chaos needs workers >= 2: 'crash' items call os._exit and "
            "would kill the parent on the in-process path"
        )
    scratch = scratch_dir or tempfile.mkdtemp(prefix="chaos-")
    items = chaos_items(config, scratch_dir=scratch)
    journal_path = journal_path or str(Path(scratch) / "chaos.journal.jsonl")
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
    result = run_sweep(items, pool_config=pool, journal=journal_path)

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

    # The journal must replay to the exact same outcome (a second
    # run_sweep over the same journal executes nothing).
    replay = run_sweep(items, pool_config=pool, journal=journal_path)
    replay_matches = (
        replay.fingerprint() == result.fingerprint()
        and replay.integrity() == result.integrity()
    )

    report = ChaosReport(
        n_items=len(items),
        delivered=sum(1 for r in result.items if r is not None),
        quarantined=len(result.quarantined),
        retries=result.retries,
        respawns=result.respawns,
        unaccounted=unaccounted,
        wrong_outcome=wrong,
        journal_records=len(read_journal(journal_path).records),
        replay_matches=replay_matches,
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


# --------------------------------------------------------------------- #
# parent-death drill
# --------------------------------------------------------------------- #
def _group_survivors(pgid: int) -> int:
    """Live (non-zombie) processes in process group ``pgid``, from /proc."""
    count = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            count += 1
    return count


def _kill_mid_flight(args, progress, kill_after: int, timeout: float):
    """Run ``python -m repro.resilience *args``; SIGKILL it mid-flight.

    The child leads a new session, so its process group holds the
    driver, its spawn workers and its resource tracker; killing only the
    driver would orphan the rest.  The whole group dies once
    ``progress()`` reaches ``kill_after`` (a child that finishes first is
    still a valid drill).  Returns ``(killed_mid_flight, survivors)``:
    live group members left after a 10 s grace, zombies not counted.
    """
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.resilience", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    killed_mid_flight = False
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline and child.poll() is None:
            if progress() >= kill_after:
                killed_mid_flight = True
                break
            time.sleep(0.05)
        if not killed_mid_flight:
            child.wait(timeout=30)
    finally:
        # A reaped leader of an empty group may have freed its pid.
        if child.poll() is None or _group_survivors(child.pid):
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the group exited meanwhile
        child.wait(timeout=30)
    deadline = time.monotonic() + 10.0
    while _group_survivors(child.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return killed_mid_flight, _group_survivors(child.pid)


def _journaled(journal_path: str, kind: str) -> int:
    return len(read_journal(journal_path).of_kind(kind))


def kill_resume_grid(seed: int = 0) -> List[dict]:
    """The small real sweep grid the kill/resume drill runs (4 cells)."""
    return grid_items(
        mechanisms=["greedy", "random"],
        budgets=[20.0, 30.0],
        n_seeds=1,
        seed=seed,
        train_episodes=2,
        eval_episodes=1,
        tier="quick",
        build_kwargs={
            "task_name": "mnist",
            "n_nodes": 4,
            "accuracy_mode": "surrogate",
            "max_rounds": 25,
        },
    )


def run_kill_resume(
    workers: int = 2,
    seed: int = 0,
    journal_path: Optional[str] = None,
    kill_after_items: int = 1,
    timeout: float = 300.0,
) -> Dict[str, object]:
    """SIGKILL a live journaled sweep mid-grid, resume, compare.

    1. Run the grid uninterrupted (in-process) → golden fingerprint.
    2. Launch ``python -m repro.resilience _child-sweep`` (a real
       ``run_sweep(..., workers, journal=...)``) in its own session and
       SIGKILL its whole process group once the journal holds
       ``kill_after_items`` completed items.
    3. Resume from the journal in this process; completed items replay,
       the rest execute.
    4. Require resumed fingerprint == golden fingerprint, and no
       process of the killed group left alive (``survivors == 0``).

    Returns a report dict with both fingerprints, ``survivors`` and ``ok``.
    """
    scratch = Path(tempfile.mkdtemp(prefix="kill-resume-"))
    journal_path = journal_path or str(scratch / "sweep.journal.jsonl")
    items = kill_resume_grid(seed)

    golden: SweepResult = run_sweep(items, workers=1).raise_on_quarantine()

    killed_mid_flight, survivors = _kill_mid_flight(
        [
            "_child-sweep",
            "--journal",
            journal_path,
            "--workers",
            str(workers),
            "--seed",
            str(seed),
        ],
        lambda: _journaled(journal_path, KIND_ITEM_OK),
        kill_after_items,
        timeout,
    )

    journaled_before_resume = _journaled(journal_path, KIND_ITEM_OK)
    resumed = run_sweep(
        items, workers=1, journal=journal_path
    ).raise_on_quarantine()

    ok = resumed.fingerprint() == golden.fingerprint() and survivors == 0
    if _obs.enabled():
        _obs.counter("resilience.chaos.parent_kills").inc()
    return {
        "ok": ok,
        "killed_mid_flight": killed_mid_flight,
        "survivors": survivors,
        "items": len(items),
        "journaled_before_resume": journaled_before_resume,
        "golden_fingerprint": golden.fingerprint(),
        "resumed_fingerprint": resumed.fingerprint(),
        "journal": journal_path,
    }


# --------------------------------------------------------------------- #
# kill-mid-training drill
# --------------------------------------------------------------------- #
#: Training-run shape the drill uses (shared by the golden run, the
#: killed child, and the resume).  Checkpoints land at every round
#: boundary so a kill after any settled round leaves a resume point.
TRAIN_DRILL: Dict[str, int] = {
    "episodes": 8,
    "sync_every": 2,
    "checkpoint_every": 2,
}


def kill_resume_training_setup(seed: int = 0):
    """The seeded ``(env, mechanism)`` pair the training drill trains.

    A small quick-tier Chiron run on the 4-node surrogate fleet —
    rebuilt identically by the golden run, the child process, and the
    resume (everything is a pure function of ``seed``).
    """
    from repro.core.builder import build_environment
    from repro.experiments.mechanisms import make_mechanism

    build = build_environment(
        task_name="mnist",
        n_nodes=4,
        budget=15.0,
        accuracy_mode="surrogate",
        seed=123,
        max_rounds=25,
    )
    mechanism = make_mechanism("chiron", build.env, rng=seed, tier="quick")
    return build.env, mechanism


def run_kill_resume_training(
    workers: int = 2,
    seed: int = 0,
    scratch_dir: Optional[str] = None,
    kill_after_rounds: int = 1,
    timeout: float = 300.0,
) -> Dict[str, object]:
    """SIGKILL a live checkpointed training run mid-curve, resume, compare.

    1. Run the drill recipe uninterrupted (``workers=1``) → golden
       training fingerprint + golden final-checkpoint digest.
    2. Launch ``python -m repro.resilience _child-train`` (a real
       journaled, checkpointed ``train_parallel`` with ``workers``) in
       its own session and SIGKILL its whole process group once the
       journal holds ``kill_after_rounds`` settled ``train_round``
       records.
    3. Resume in this process from the child's checkpoint directory,
       again with ``workers``.
    4. Require resumed fingerprint == golden fingerprint AND resumed
       final-checkpoint digest == golden final-checkpoint digest AND no
       process of the killed group left alive (``survivors == 0``).

    Returns a report dict with both pairs, ``survivors`` and ``ok``.
    """
    from repro.parallel.training import (
        KIND_TRAIN_ROUND,
        train_parallel,
        training_fingerprint,
    )
    from repro.resilience.journal import RunJournal
    from repro.resilience.training import checkpoint_digest, latest_checkpoint

    scratch = Path(scratch_dir or tempfile.mkdtemp(prefix="kill-train-"))
    golden_dir = scratch / "golden-ckpt"
    drill_dir = scratch / "drill-ckpt"
    journal_path = str(scratch / "train.journal.jsonl")

    env, mechanism = kill_resume_training_setup(seed)
    golden_history = train_parallel(
        env,
        mechanism,
        TRAIN_DRILL["episodes"],
        seed=seed,
        workers=1,
        sync_every=TRAIN_DRILL["sync_every"],
        checkpoint_every=TRAIN_DRILL["checkpoint_every"],
        checkpoint_dir=str(golden_dir),
    )
    golden_fp = training_fingerprint(golden_history)
    golden_ckpt = checkpoint_digest(latest_checkpoint(golden_dir))

    killed_mid_flight, survivors = _kill_mid_flight(
        [
            "_child-train",
            "--journal",
            journal_path,
            "--dir",
            str(drill_dir),
            "--workers",
            str(workers),
            "--seed",
            str(seed),
        ],
        lambda: _journaled(journal_path, KIND_TRAIN_ROUND),
        kill_after_rounds,
        timeout,
    )

    rounds_before_resume = _journaled(journal_path, KIND_TRAIN_ROUND)
    env, mechanism = kill_resume_training_setup(seed)
    with RunJournal(journal_path) as journal:
        resumed_history = train_parallel(
            env,
            mechanism,
            TRAIN_DRILL["episodes"],
            seed=seed,
            workers=workers,
            sync_every=TRAIN_DRILL["sync_every"],
            checkpoint_every=TRAIN_DRILL["checkpoint_every"],
            checkpoint_dir=str(drill_dir),
            journal=journal,
        )
    resumed_fp = training_fingerprint(resumed_history)
    resumed_ckpt = checkpoint_digest(latest_checkpoint(drill_dir))

    ok = (
        resumed_fp == golden_fp
        and resumed_ckpt == golden_ckpt
        and survivors == 0
    )
    if _obs.enabled():
        _obs.counter("resilience.chaos.parent_kills").inc()
    return {
        "ok": ok,
        "killed_mid_flight": killed_mid_flight,
        "survivors": survivors,
        "episodes": TRAIN_DRILL["episodes"],
        "rounds_journaled_before_resume": rounds_before_resume,
        "golden_fingerprint": golden_fp,
        "resumed_fingerprint": resumed_fp,
        "golden_checkpoint_digest": golden_ckpt,
        "resumed_checkpoint_digest": resumed_ckpt,
        "journal": journal_path,
    }
