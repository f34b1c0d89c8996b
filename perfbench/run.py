"""The repository benchmark: three workloads, timed end to end, outputs pinned.

Run from the repository root (the directory holding ``BENCHMARK.json`` and
``src/``)::

    python3 perfbench/run.py --workload fig4_quick --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py                  # every workload at seed 0
    python3 perfbench/run.py --workload fl_real --trace 1
    python3 perfbench/run.py --smoke          # seconds-scale self-check

``README.md`` beside this file says what a run does, what each workload
and metric is, and why.  The last line printed is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
#: no run may take longer than this, trials included.
RUN_LIMIT_S = 170.0

#: every end-to-end metric measured: name -> (unit, better).  README.md
#: says why ``BENCHMARK.json`` lists only some of them.
MEASURED = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "env_steps_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    cap = str(threads())
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
    ):
        env[var] = cap
    return env


def revision(root: Path, src: Path) -> Dict[str, Optional[str]]:
    """Git revision of ``root`` (when it is a repository) and a digest of
    the program's source files, which identifies any checkout."""
    try:
        rev = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return {"git": rev, "src_sha256": h.hexdigest()}


def run_trial(
    src: Path, workload: str, seed: int, mode: str, size: str, timeout: float
) -> dict:
    """One fresh-interpreter trial; returns its record (``error`` on failure)."""
    command = [sys.executable, str(HERE / "trial.py"), workload, str(seed), mode, size]
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command,
            env=child_env(src),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": "timed out", "episodes": 1, "failed": 1,
                "duration": time.monotonic() - spawned}
    duration = time.monotonic() - spawned
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        return {"mode": mode, "error": f"exit {done.returncode}, no result",
                "episodes": 1, "failed": 1, "duration": duration}
    if "error" in record:
        sys.stderr.write(done.stderr)
    if "setup_done" in record:
        record["setup_s"] = record["setup_done"] - spawned
    record["duration"] = duration
    return record


def _pin(workload: str, size: str, seed: int) -> Optional[str]:
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    return pins.get(size, {}).get(workload, {}).get(str(seed))


def run_workload(
    src: Path, workload: str, seed: int, seconds: float, trace: bool, size: str
) -> dict:
    """Trials until ``seconds`` pass (at least one), plus the traced and
    obs-enabled trials when ``trace``; returns the run's report."""
    started = time.monotonic()
    deadline = started + seconds

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    trials: List[dict] = []
    while True:
        trial = run_trial(src, workload, seed, "plain", size, remaining())
        trials.append(trial)
        if "error" in trial or time.monotonic() + trial["duration"] > deadline:
            break
    if trace:
        for mode in ("trace", "obs"):
            trials.append(run_trial(src, workload, seed, mode, size, remaining()))

    pin = _pin(workload, size, seed)
    expected = pin
    if expected is None:
        expected = next((t["fingerprint"] for t in trials if "fingerprint" in t), None)
    attempted = failed = 0
    for trial in trials:
        trial["ok"] = "error" not in trial and trial.get("fingerprint") == expected
        attempted += trial["episodes"]
        failed += trial["failed"] if trial["ok"] else trial["episodes"]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "pinned": pin is not None,
        "expected_fingerprint": expected,
        "correct": failed == 0 and all(t["ok"] for t in trials),
        "attempted": attempted,
        "failed": failed,
        "trials": trials,
    }


def _timed(report: dict, mode: str) -> List[dict]:
    return [t for t in report["trials"] if t["mode"] == mode and "wall_s" in t]


def fastest_body_s(plain: List[dict]) -> float:
    """The body's wall time with the host's slow moments taken out: the sum,
    over the body's segments, of each segment's fastest time across the
    trials.  Trials of one run and seed do the same work segment for
    segment; one whose segment count differs from the first's is left out."""
    count = len(plain[0]["segments"])
    runs = [t["segments"] for t in plain if len(t["segments"]) == count]
    return sum(map(min, zip(*runs)))


def end_to_end(report: dict) -> Dict[str, float]:
    """Every end-to-end metric of the run (empty without a timed trial)."""
    plain = _timed(report, "plain")
    if not plain:
        return {}

    def median(key: str) -> float:
        return statistics.median(t[key] for t in plain)

    return {
        "setup_s": median("setup_s"),
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "env_steps_per_s": plain[0]["env_steps"] / fastest_body_s(plain),
        "peak_rss_mib": median("peak_rss_mib"),
    }


def per_layer(report: dict) -> Dict[str, float]:
    traced = _timed(report, "trace")
    plain = _timed(report, "plain")
    if not traced or not plain:
        return {}
    layers = dict(traced[0]["layers"])
    base = statistics.median(t["wall_s"] for t in plain)
    layers["trace.overhead_frac"] = traced[0]["wall_s"] / base - 1.0
    obs = _timed(report, "obs")
    if obs:
        layers["obs.enabled_overhead_frac"] = obs[0]["wall_s"] / base - 1.0
    return layers


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metrics_line(spec: dict, report: dict, trace: bool) -> Optional[dict]:
    """The contract's ``metrics`` object, or None when a value is missing."""
    if trace:
        values = per_layer(report)
        listed = spec["per_layer"]
    else:
        values = end_to_end(report)
        listed = spec["end_to_end"]
    metrics = {}
    for metric in listed:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            return None
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def describe(report: dict, trace: bool) -> None:
    """Human-readable summary of one run."""
    plain = _timed(report, "plain")
    print(
        f"{report['workload']}: seed={report['seed']} size={report['size']} "
        f"trials={len(plain)} correct={report['correct']}\n"
        f"  fingerprint {report['expected_fingerprint']} "
        f"({'pinned' if report['pinned'] else 'unpinned'})"
    )
    for name, value in end_to_end(report).items():
        print(f"  {name:<18} {value:12.4f} {MEASURED[name][0]}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(
        f"  {'ops_failed_frac':<18} {frac:12.4f} ratio  "
        f"({report['failed']}/{report['attempted']} episodes)"
    )
    for trial in report["trials"]:
        if not trial["ok"]:
            print(f"  FAILED {trial['mode']} trial: "
                  f"{trial.get('error') or 'fingerprint ' + str(trial.get('fingerprint'))}")
    if trace:
        layers = per_layer(report)
        wall = _timed(report, "trace")[0]["wall_s"] if layers else 0.0
        print(f"  per layer (traced wall {wall:.3f} s):")
        selfs = sorted(
            (k for k in layers if k.endswith(".self_s")),
            key=lambda k: -layers[k],
        )
        for key in selfs:
            name = key[: -len(".self_s")]
            print(
                f"    {name:<22} self {layers[key]:9.4f} s "
                f"{100 * layers[key] / wall:5.1f}%  calls {layers[name + '.calls']}"
            )
        for key in sorted(layers):
            if not key.endswith((".self_s", ".calls")):
                print(f"    {key:<34} {layers[key]:.4f}")


def save(report: dict, meta: dict) -> None:
    out = Path.cwd() / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = (
        f"{report['workload']}-{report['size']}-seed{report['seed']}"
        f"-trace{int(report['trace'])}.json"
    )
    trials = [{k: v for k, v in t.items() if k != "segments"} for t in report["trials"]]
    (out / name).write_text(json.dumps({**meta, **report, "trials": trials}, indent=1))


def smoke(spec: dict, src: Path) -> int:
    """Every workload at smoke size in every mode; checks schema and pins."""
    problems = []
    attempted = failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        report = run_workload(src, workload, 0, 0.0, True, "smoke")
        describe(report, True)
        attempted += report["attempted"]
        failed += report["failed"]
        if not report["pinned"]:
            problems.append(f"{workload}: no smoke pin for seed 0")
        if not report["correct"]:
            problems.append(f"{workload}: output does not match")
        for trace in (False, True):
            if metrics_line(spec, report, trace) is None:
                problems.append(f"{workload}: missing metric (trace={int(trace)})")
    for problem in problems:
        print("SMOKE:", problem)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program source at {src}; run from the repo root\n")
        return 2
    spec = load_spec(root)
    compileall.compile_dir(str(src), quiet=1)
    if args.smoke:
        return smoke(spec, src)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    meta = {
        "revision": revision(root, src),
        "nproc": os.cpu_count(),
        "thread_cap": threads(),
        "python": sys.version.split()[0],
    }
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        report = run_workload(
            src, workload, args.seed, seconds, bool(args.trace), "full"
        )
        versions = next((t for t in report["trials"] if "numpy" in t), {})
        meta["numpy"] = versions.get("numpy")
        save(report, meta)
        describe(report, bool(args.trace))
        metrics = metrics_line(spec, report, bool(args.trace))
        if metrics is None:
            sys.stderr.write(f"{workload}: no complete measurement\n")
            status = 2
            continue
        print("meta " + json.dumps(meta))
        print(json.dumps({"correct": report["correct"],
                          "attempted": report["attempted"],
                          "failed": report["failed"], "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
