"""One trial of one workload in a fresh interpreter.

``run.py`` starts this script with the program's ``src`` on
``PYTHONPATH`` and reads the JSON object it prints last::

    python3 perfbench/trial.py WORKLOAD SEED MODE SIZE

MODE is ``plain`` (the end-to-end measurement), ``trace`` (entry points
wrapped by :mod:`tracing`; spans written under ``./.perfbench/``) or
``obs`` (``repro.obs`` enabled).  SIZE is ``full`` or ``smoke``.

Every mode stamps the start of each environment step and optimizer step;
a plain trial reports the body cut at those stamps into ``segments``,
from which ``run.py`` computes ``env_steps_per_s``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _stamp_steps():
    """Record when each environment step and each optimizer step starts.

    Returns ``(stamps, env_steps)``: the list every stamp is appended to,
    and the list of environment-step stamps alone.
    """
    from repro.core.env import EdgeLearningEnv
    from repro.nn.optim import SGD, Adam

    stamps, env_steps = [], []
    clock = time.perf_counter

    def stamp(cls, also=None):
        step = cls.step

        def stamped(self, *args, **kwargs):
            now = clock()
            stamps.append(now)
            if also is not None:
                also.append(now)
            return step(self, *args, **kwargs)

        cls.step = stamped

    stamp(EdgeLearningEnv, env_steps)
    stamp(SGD)
    stamp(Adam)
    return stamps, env_steps


def main(argv) -> int:
    workload, seed, mode, size = argv[1], int(argv[2]), argv[3], argv[4]
    import numpy as np

    import repro
    import workloads

    stamps, env_steps = _stamp_steps()
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif mode == "obs":
        from repro import obs

        obs.enable()
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    spec = workloads.WORKLOADS[workload]
    progress = {"episodes": 0}
    record = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "size": size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "program": os.path.dirname(repro.__file__),
    }
    try:
        state = spec.setup(seed, spec.sizes[size])
        record["setup_done"] = time.monotonic()
        stamps_before, env_steps_before = len(stamps), len(env_steps)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outcome = spec.body(state, progress)
        t1 = time.perf_counter()
        cpu = time.process_time() - cpu0
        body_stamps = stamps[stamps_before:]
        record.update(
            wall_s=t1 - t0,
            cpu_s=cpu,
            env_steps=len(env_steps) - env_steps_before,
            episodes=outcome.episodes,
            failed=outcome.failed,
            fingerprint=spec.fingerprint(outcome.output),
        )
        if mode == "plain":
            cuts = [t0, *body_stamps, t1]
            record["segments"] = [b - a for a, b in zip(cuts, cuts[1:])]
        if tracer is not None:
            layers = tracer.layers(t0, t1)
            layers["parallel.retries"] = outcome.retries
            layers["parallel.quarantined"] = outcome.quarantined
            record["layers"] = layers
            span_dir = Path.cwd() / ".perfbench"
            span_dir.mkdir(parents=True, exist_ok=True)
            tracer.save(span_dir / f"spans-{workload}-{size}-seed{seed}.tsv.gz")
    except Exception as exc:
        traceback.print_exc()
        attempted = max(progress["episodes"], 1)
        record.update(error=repr(exc), episodes=attempted, failed=attempted)
    record["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
