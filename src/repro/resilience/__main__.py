"""CLI: ``python -m repro.resilience <command>``.

Commands::

    chaos        deterministic fault-injection run (worker kills, hangs,
                 poisoned payloads) through a journaled pool; exits
                 non-zero if any injected failure is dropped instead of
                 retried/quarantined, or if the journal replay diverges.
    resume-test  parent-death drill: SIGKILL a live 2-worker journaled
                 sweep mid-grid, resume from the journal, require the
                 resumed fingerprint to equal the uninterrupted one.
    inspect      summarize a journal file (records by kind, completion).
    _child-sweep (internal) the subprocess body resume-test kills.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.utils.logging import set_verbosity


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        seed=args.seed,
        workers=args.workers,
        max_retries=args.max_retries,
        item_timeout=args.item_timeout,
    )
    report = run_chaos(config, journal_path=args.journal)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_resume_test(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import run_kill_resume

    report = run_kill_resume(
        workers=args.workers,
        seed=args.seed,
        journal_path=args.journal,
        kill_after_items=args.kill_after,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["killed_mid_flight"]:
        print(
            "note: child finished before the kill landed; fingerprint "
            "identity still verified",
            file=sys.stderr,
        )
    print("resume-test: OK" if report["ok"] else "resume-test: FAILED")
    return 0 if report["ok"] else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.resilience.sweep import sweep_progress

    print(json.dumps(sweep_progress(args.journal), indent=2, sort_keys=True))
    return 0


def _cmd_child_sweep(args: argparse.Namespace) -> int:
    """Internal: the journaled sweep body the resume-test drill kills."""
    from repro.parallel.engine import run_sweep
    from repro.resilience.chaos import kill_resume_grid

    run_sweep(
        kill_resume_grid(args.seed),
        workers=args.workers,
        journal=args.journal,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Crash-safety drills: chaos injection, kill/resume proof",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_chaos = sub.add_parser("chaos", help="deterministic fault injection")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--workers", type=int, default=2)
    p_chaos.add_argument("--max-retries", type=int, default=1)
    p_chaos.add_argument("--item-timeout", type=float, default=1.0)
    p_chaos.add_argument("--journal", help="journal path (default: temp)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_resume = sub.add_parser(
        "resume-test", help="SIGKILL a live journaled sweep, resume, compare"
    )
    p_resume.add_argument("--seed", type=int, default=0)
    p_resume.add_argument("--workers", type=int, default=2)
    p_resume.add_argument("--kill-after", type=int, default=1)
    p_resume.add_argument("--journal", help="journal path (default: temp)")
    p_resume.set_defaults(func=_cmd_resume_test)

    p_inspect = sub.add_parser("inspect", help="summarize a journal file")
    p_inspect.add_argument("journal")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_child = sub.add_parser("_child-sweep")
    p_child.add_argument("--seed", type=int, default=0)
    p_child.add_argument("--workers", type=int, default=2)
    p_child.add_argument("--journal", required=True)
    p_child.set_defaults(func=_cmd_child_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        set_verbosity()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
