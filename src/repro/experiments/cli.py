"""Command-line entry point: ``chiron-repro`` / ``python -m repro.experiments``.

Examples::

    chiron-repro list
    chiron-repro run fig3
    chiron-repro run fig4 --scale quick --seed 1 --out results/
    chiron-repro run all --out results/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.utils.logging import set_verbosity
from repro.utils.serialization import to_json_file


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for exp_id, spec in EXPERIMENTS.items():
        print(f"{exp_id.ljust(width)}  {spec.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    exp_ids: List[str] = (
        sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    exit_code = 0
    for exp_id in exp_ids:
        spec = get_experiment(exp_id)
        journal = None
        if args.journal:
            journal = (
                args.journal
                if len(exp_ids) == 1
                else f"{args.journal}.{exp_id}"
            )
        print(f"== {exp_id}: {spec.description} (scale={args.scale}) ==")
        start = time.perf_counter()
        payload, rendered = spec.runner(
            args.scale, args.seed, workers=args.workers, journal=journal
        )
        elapsed = time.perf_counter() - start
        print(rendered)
        print(f"-- finished in {elapsed:.1f}s --\n")
        if args.out:
            out = Path(args.out) / f"{exp_id}_{args.scale}_seed{args.seed}.json"
            to_json_file(payload, out)
            print(f"wrote {out}")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiron-repro",
        description="Regenerate the figures/tables of the Chiron paper (ICDCS 2021)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable progress logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    p_run.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help=(
            "workload size: 'quick' (seconds-minutes) or 'paper' (§VI-A sizes; "
            "'run all' took 12.5 minutes at one worker on a 2-vCPU host, "
            "about 3 of them in the tournament)"
        ),
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for the grid experiments (fig4-fig6, "
        "table1) and the tournament; the other experiments run in one "
        "process. Results are identical for any value (see "
        "docs/parallel.md)",
    )
    p_run.add_argument("--out", help="directory for JSON payloads")
    p_run.add_argument(
        "--journal",
        help="durable run-journal path for grid experiments: settled "
        "cells are journaled as they finish and a rerun with the same "
        "path resumes instead of recomputing (running 'all' appends "
        "'.<exp_id>' per experiment; see docs/resilience.md)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser(
        "report", help="render a paper-vs-measured markdown report"
    )
    p_report.add_argument("results_dir", help="directory written by 'run --out'")
    p_report.set_defaults(func=_cmd_report)
    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    print(build_report(args.results_dir))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        set_verbosity()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
