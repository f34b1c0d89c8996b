"""Paired A/B: another git revision's program against this tree's, same host.

Run from the repository root::

    python3 perfbench/ab.py --against HEAD~1
    python3 perfbench/ab.py --against main --workload fig4_quick --pairs 10

Both sides run this tree's benchmark code with identical settings and the
run length ``BENCHMARK.json`` fixes: the revision's ``src/`` is exported
with ``git archive`` into a temporary directory and measured through
:func:`run.run_workload`, the same call ``run.py`` makes.  Pair ``i``
(from 1) runs both sides at seed ``i``, alternating which side goes
first.  For every workload
and end-to-end metric it prints each side's median and quartiles over the
pairs, how many pairs the change won, and a verdict:

* ``gain`` — over at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither), its median is better by more
  than the base's quartile spread, and no more episodes failed than on
  the base;
* ``unresolved`` — the base's own spread is wider than the metric's bound,
  unless every run of the change reads better than every run of the base
  (then ``better``);
* ``worse`` — the change's median is worse by more than the bound;
* ``no worse`` — otherwise.

Neither tree is edited; the export is removed at the end.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import run


def export_src(rev: str, into: Path) -> tuple:
    """``(commit, src dir)`` of ``rev``'s program, exported under ``into``."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit, into / "src"


def verdict(
    sign: float, bound: float, base: list, head: list, more_failures: bool
) -> str:
    """``sign`` is 1 when lower is better, -1 when higher is."""
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    b_q1, b_med, b_q3 = run.quartiles(base)
    gain = sign * (b_med - statistics.median(head))
    if (
        len(base) >= 10
        and wins >= 0.9 * len(base)
        and gain > b_q3 - b_q1
        and not more_failures
    ):
        return "gain"
    if (b_q3 - b_q1) / b_med > bound:
        all_better = max(head) < min(base) if sign > 0 else min(head) > max(base)
        return "better" if all_better else "unresolved"
    if -gain / b_med > bound:
        return "worse"
    return "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="base git revision")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = run.load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = spec["run_seconds"]
    # Paired at equal seeds, both sides run the same work, so the unbounded
    # wall_s and cpu_s are judged at env_steps_per_s's bound.
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    head_src = (root / "src").resolve()

    rows = []
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        commit, base_src = export_src(args.against, Path(tmp))
        sides = {"base": base_src, "head": head_src}
        for src in sides.values():
            compileall.compile_dir(str(src), quiet=1)
        for workload in workloads:
            samples = {"base": [], "head": []}
            failed = {"base": 0, "head": 0}
            identical = 0
            for seed in range(1, args.pairs + 1):
                order = ["base", "head"] if seed % 2 else ["head", "base"]
                fingerprints = {}
                for side in order:
                    report = run.run_workload(
                        sides[side], workload, seed, seconds, False, "full"
                    )
                    failed[side] += report["failed"]
                    fingerprints[side] = report["expected_fingerprint"]
                    samples[side].append(run.end_to_end(report))
                identical += fingerprints["base"] == fingerprints["head"]
                print(f"{workload} pair {seed}/{args.pairs} done", flush=True)
            for name, (unit, better) in run.MEASURED.items():
                base = [s[name] for s in samples["base"]]
                head = [s[name] for s in samples["head"]]
                sign = 1.0 if better == "lower" else -1.0
                more_failures = failed["head"] > failed["base"]
                rows.append({
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "base": run.quartiles(base),
                    "head": run.quartiles(head),
                    "head_wins": sum(sign * (b - h) > 0 for b, h in zip(base, head)),
                    "pairs": len(base),
                    "verdict": verdict(
                        sign, bounds.get(name, bounds["env_steps_per_s"]),
                        base, head, more_failures,
                    ),
                    "failed": failed,
                    "identical_outputs": identical,
                })

    print(f"\nbase {args.against} ({commit[:12]}) vs head (working tree), "
          f"{args.pairs} pairs, {seconds:g} s per run")
    print(f"{'workload':<16} {'metric':<16} {'base median [q1, q3]':<34} "
          f"{'head median [q1, q3]':<34} wins  verdict")
    for row in rows:
        b1, bm, b3 = row["base"]
        h1, hm, h3 = row["head"]
        print(f"{row['workload']:<16} {row['metric']:<16} "
              f"{bm:10.4g} [{b1:.4g}, {b3:.4g}] {row['unit']:<6}"
              f"{hm:10.4g} [{h1:.4g}, {h3:.4g}] {row['unit']:<6}"
              f"{row['head_wins']:>2}/{row['pairs']:<2} {row['verdict']}")
    for workload in workloads:
        row = next(r for r in rows if r["workload"] == workload)
        print(f"{workload}: failed episodes base {row['failed']['base']}, "
              f"head {row['failed']['head']}; identical outputs in "
              f"{row['identical_outputs']}/{row['pairs']} pairs")
    print(json.dumps({"base": commit, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
