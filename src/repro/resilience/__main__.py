"""CLI: ``python -m repro.resilience <command>``.

Commands::

    chaos        deterministic fault-injection run (worker kills, hangs,
                 poisoned payloads) through a 2-worker pool; exits
                 non-zero if any injected failure is dropped instead of
                 retried/quarantined.
"""

from __future__ import annotations

import argparse
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
    report = run_chaos(config)
    print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Chaos accounting audit of the sweep pool",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_chaos = sub.add_parser("chaos", help="deterministic fault injection")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--workers", type=int, default=2)
    p_chaos.add_argument("--max-retries", type=int, default=1)
    p_chaos.add_argument("--item-timeout", type=float, default=1.0)
    p_chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        set_verbosity()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
