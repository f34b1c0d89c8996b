"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    layer_names = {m["name"] for m in spec["per_layer"]}
    for layer in tracing.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= layer_names


def test_self_times_add_up_to_the_body():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.002)

    def outer(depth):
        if depth:
            outer(depth - 1)  # joins the open span
        inner()
        inner()

    inner = tracer.wrap("autograd.backward", inner)
    outer = tracer.wrap("rl.update", outer)
    start = time.perf_counter()
    outer(2)
    time.sleep(0.001)
    end = time.perf_counter()
    layers = tracer.layers(start, end)
    assert layers["rl.update.calls"] == 1
    assert layers["autograd.backward.calls"] == 6
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total + layers["trace.unattributed_s"] == pytest.approx(end - start)
    assert layers["autograd.backward.self_s"] >= 6 * 0.002
    assert layers["trace.unattributed_s"] >= 0.001


def test_fastest_body_takes_each_segments_minimum():
    plain = [
        {"segments": [1.0, 5.0, 2.0]},
        {"segments": [3.0, 1.0, 2.5]},
        {"segments": [0.1, 0.1]},  # other work: left out
    ]
    assert run.fastest_body_s(plain) == 1.0 + 1.0 + 2.0


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_smoke_matches_pins_in_every_mode():
    done = _run(["--smoke"], ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "fl_real", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
