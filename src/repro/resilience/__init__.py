"""``repro.resilience`` — crash-safe sweeps.

A sweep fans many mechanism × budget × seed cells over a process pool;
this package lets an interrupted sweep pick up where it stopped without
giving up the repo's determinism contract:

* :mod:`repro.resilience.journal` — append-only JSONL write-ahead log
  with per-record sha256 and batched fsync; the reader tolerates exactly
  one torn trailing write (what a crash can produce) and rejects
  anything worse.
* :mod:`repro.resilience.sweep` — ``run_sweep(..., journal=path)``:
  every settled item is journaled as it drains; a rerun replays the
  journal, executes only the remainder, and reproduces the
  uninterrupted ``SweepResult.fingerprint()`` bit for bit.
* :mod:`repro.resilience.signals` — :class:`ShutdownGuard` turns
  SIGTERM/SIGINT into a cooperative drain: in-flight work finishes, the
  journal flushes, and a resumable manifest is written.
* :mod:`repro.resilience.chaos` — deterministic fault injection (worker
  kills, hangs, unpicklable results, parent-process SIGKILL) proving
  the retry/quarantine/resume paths end-to-end; also the CLI
  ``python -m repro.resilience chaos|resume-test|inspect``.

Training runs in one pass and has no checkpoint; a trained policy is
exported with ``ChironAgent.save``/``load`` (:mod:`repro.rl.checkpoint`).

Everything surfaces through :mod:`repro.obs` counters
(``resilience.journal.*``, ``resilience.resume.*``,
``resilience.chaos.*``).  See ``docs/resilience.md``.
"""

from repro.resilience.chaos import (
    ChaosConfig,
    ChaosReport,
    chaos_items,
    run_chaos,
    run_kill_resume,
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
    "ChaosConfig",
    "ChaosReport",
    "chaos_items",
    "run_chaos",
    "run_kill_resume",
]
