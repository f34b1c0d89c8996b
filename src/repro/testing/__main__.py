"""``python -m repro.testing`` — golden traces, diff matrix, fuzz corpus.

Subcommands:

* ``verify [names...]`` — re-run the golden scenarios and compare against
  the committed traces (``--rtol/--atol`` relax the float comparison for
  cross-platform runs; default is bit-exact).  Exit 1 on any mismatch.
* ``update [names...]`` — re-capture and rewrite the golden files.
* ``diff [scenarios...]`` — run the differential variant matrix and
  report the first diverging round per variant.  Exit 1 on divergence.
* ``fuzz`` — run the seeded env/autograd fuzz corpora.  Exit 1 on any
  failing case.
* ``list`` — show the registered scenarios and golden-file status.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.testing import differential, fuzz, golden
from repro.testing import training as training_golden
from repro.testing.scenarios import SCENARIOS


def _split_names(names):
    """Split requested names into (scenario names, run-training-golden)."""
    if not names:
        return None, True
    scenario_names = [
        n for n in names if n != training_golden.GOLDEN_TRAINING_NAME
    ]
    return scenario_names, training_golden.GOLDEN_TRAINING_NAME in names


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario_names, with_training = _split_names(args.names)
    directory = Path(args.dir) if args.dir else None
    reports = []
    if scenario_names is None or scenario_names:
        reports = golden.verify_all(
            names=scenario_names,
            directory=directory,
            rtol=args.rtol,
            atol=args.atol,
        )
    if with_training:
        reports = list(reports) + [
            training_golden.verify_training_golden(directory)
        ]
    for report in reports:
        print(report.describe())
    return 0 if all(r.ok for r in reports) else 1


def _cmd_update(args: argparse.Namespace) -> int:
    scenario_names, with_training = _split_names(args.names)
    directory = Path(args.dir) if args.dir else None
    written = {}
    if scenario_names is None or scenario_names:
        written = golden.update_all(names=scenario_names, directory=directory)
    if with_training:
        written = dict(written)
        written[training_golden.GOLDEN_TRAINING_NAME] = (
            training_golden.update_training_golden(directory)
        )
    for name, path in written.items():
        print(f"[UPDATED] {name} -> {path}")
    print(
        "Review the diff before committing: a digest change means the "
        "mechanism's numbers changed (see docs/testing.md)."
    )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    names = args.scenarios or sorted(SCENARIOS)
    grid = differential.matrix_report(names, variants=args.variants or None)
    ok = True
    for name, outcomes in grid.items():
        for outcome in outcomes:
            print(outcome.describe())
            ok = ok and outcome.identical
    return 0 if ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    progress = (lambda case: print(case.describe())) if args.verbose else None
    report = fuzz.run_fuzz(
        env_cases=args.env_cases,
        autograd_cases=args.autograd_cases,
        base_seed=args.seed,
        rounds=args.rounds,
        progress=progress,
    )
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else golden.DEFAULT_GOLDEN_DIR
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        path = golden.golden_path(name, directory)
        status = "committed" if path.exists() else "MISSING"
        print(f"{name:<16} golden={status}")
        print(f"    {scenario.description}")
    train_path = training_golden.training_golden_path(directory)
    status = "committed" if train_path.exists() else "MISSING"
    name = training_golden.GOLDEN_TRAINING_NAME
    print(f"{name:<16} (training trace)  golden={status}")
    print(
        "    Pinned seeded training curve: "
        f"{training_golden.RECIPE['episodes']} episodes of quick-tier "
        "Chiron on the population_n5 fleet."
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Correctness tooling: golden traces, diff matrix, fuzz.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check golden traces")
    p_verify.add_argument("names", nargs="*", help="scenario names (default all)")
    p_verify.add_argument("--dir", default=None, help="golden directory override")
    p_verify.add_argument("--rtol", type=float, default=0.0)
    p_verify.add_argument("--atol", type=float, default=0.0)
    p_verify.add_argument(
        "--update",
        action="store_true",
        help="shorthand for the update subcommand",
    )
    p_verify.set_defaults(
        func=lambda a: _cmd_update(a) if a.update else _cmd_verify(a)
    )

    p_update = sub.add_parser("update", help="rewrite golden traces")
    p_update.add_argument("names", nargs="*")
    p_update.add_argument("--dir", default=None)
    p_update.set_defaults(func=_cmd_update)

    p_diff = sub.add_parser("diff", help="run the differential matrix")
    p_diff.add_argument("scenarios", nargs="*")
    p_diff.add_argument(
        "--variants",
        nargs="*",
        choices=list(differential.VARIANTS),
        default=None,
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_fuzz = sub.add_parser("fuzz", help="run the seeded fuzz corpora")
    p_fuzz.add_argument("--env-cases", type=int, default=20)
    p_fuzz.add_argument("--autograd-cases", type=int, default=30)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--rounds", type=int, default=50)
    p_fuzz.add_argument("-v", "--verbose", action="store_true")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_list = sub.add_parser("list", help="show scenarios and golden status")
    p_list.add_argument("--dir", default=None)
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
