"""``repro.resilience`` — crash-safe durability for long runs.

The paper's mechanism is *long-term*: its value shows up over many
federated rounds and many training episodes, which in practice means
multi-hour runs on infrastructure that preempts, OOM-kills and reboots.
This package makes those runs durable without giving up the repo's
determinism contract:

* :mod:`repro.resilience.journal` — append-only JSONL write-ahead log
  with per-record sha256 and batched fsync; the reader tolerates exactly
  one torn trailing write (what a crash can produce) and rejects
  anything worse.
* :mod:`repro.resilience.sweep` — ``run_sweep(..., journal=path)``:
  every settled item is journaled as it drains; a rerun replays the
  journal, executes only the remainder, and reproduces the
  uninterrupted ``SweepResult.fingerprint()`` bit for bit.
* :mod:`repro.resilience.training` — ``train_mechanism(...,
  checkpoint_every=N, checkpoint_dir=...)``: atomic full-fidelity
  checkpoints (agent + env RNG streams + history) every N episodes,
  with bitwise-identical resume after ``kill -9``.
* :mod:`repro.resilience.signals` — :class:`ShutdownGuard` turns
  SIGTERM/SIGINT into a cooperative drain: in-flight work finishes, the
  journal flushes, and a resumable manifest is written.
* :mod:`repro.resilience.chaos` — deterministic fault injection (worker
  kills, hangs, unpicklable results, parent-process SIGKILL) proving
  the retry/quarantine/resume paths end-to-end for sweeps *and* for
  checkpointed training (``run_kill_resume_training``); also the CLI
  ``python -m repro.resilience chaos|resume-test|train-resume-test|inspect``.

Everything surfaces through :mod:`repro.obs` counters
(``resilience.journal.*``, ``resilience.resume.*``,
``resilience.checkpoint.*``, ``resilience.chaos.*``).  See
``docs/resilience.md``.
"""

from repro.resilience.chaos import (
    ChaosConfig,
    ChaosReport,
    chaos_items,
    run_chaos,
    run_kill_resume,
    run_kill_resume_training,
)
from repro.resilience.journal import (
    JournalCorrupt,
    JournalRecord,
    ReplayReport,
    RunJournal,
    read_journal,
    record_digest,
)
from repro.resilience.signals import ShutdownGuard, ShutdownRequested
from repro.resilience.sweep import (
    journaled_sweep,
    manifest_digest,
    sweep_progress,
)
from repro.resilience.training import (
    checkpoint_digest,
    latest_checkpoint,
    list_checkpoints,
    load_training_checkpoint,
    prune_checkpoints,
    save_training_checkpoint,
)

__all__ = [
    "RunJournal",
    "JournalRecord",
    "JournalCorrupt",
    "ReplayReport",
    "read_journal",
    "record_digest",
    "journaled_sweep",
    "manifest_digest",
    "sweep_progress",
    "ShutdownGuard",
    "ShutdownRequested",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
    "checkpoint_digest",
    "ChaosConfig",
    "ChaosReport",
    "chaos_items",
    "run_chaos",
    "run_kill_resume",
    "run_kill_resume_training",
]
