"""Shared benchmark plumbing.

Every benchmark regenerates one paper figure/table at the ``quick`` scale
(surrogate accuracy, tens of training episodes) and prints the same
rows/series the paper reports.  ``pedantic(rounds=1)`` is used for the
experiment benches — they are macro-benchmarks whose value is the printed
reproduction, not a statistically tight timing distribution.

Set ``CHIRON_BENCH_SCALE=paper`` to run the paper-sized workloads instead
(minutes: ``chiron-repro run all --scale paper`` took 12.5 minutes at one
worker on a 2-vCPU host, about 3 of them in the tournament).
"""

from __future__ import annotations

import os

import pytest


def bench_scale() -> str:
    return os.environ.get("CHIRON_BENCH_SCALE", "quick")


@pytest.fixture
def scale() -> str:
    return bench_scale()


def run_and_print(benchmark, runner, scale: str, seed: int = 0):
    """Run a registry experiment once under pytest-benchmark, print output."""
    result = {}

    def target():
        payload, rendered = runner(scale, seed)
        result["payload"] = payload
        result["rendered"] = rendered
        return payload

    benchmark.pedantic(target, rounds=1, iterations=1)
    print()
    print(result["rendered"])
    return result["payload"]
