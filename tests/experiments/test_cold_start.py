"""Import hygiene: no training or sweep process loads scipy.

scipy has one call site in the program: the Student-t quantile of the
tournament's confidence interval, which imports ``scipy.stats`` where it
is used.  The synthetic image prototypes are smoothed by a numpy filter.
So a sweep or training worker, on the calibrated surrogate curve or
training real CNNs, the tournament package and the CLI start without
scipy (about half of a surrogate trial's set-up time, a third of a
real-accuracy one's).  The check runs in a fresh interpreter because test
modules of this suite import scipy themselves.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    from repro.core.builder import BuildConfig, build_environment
    from repro.parallel.items import execute, sweep_item

    def scipy_modules():
        return sorted(
            m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
        )

    build = BuildConfig(n_nodes=5, budget=20.0, accuracy_mode="surrogate")
    for name in ("chiron", "drl_single", "greedy"):
        result = execute(sweep_item(
            build.to_dict(), name, rng_root=0, rng_stream=f"{name}/20.0/0",
            train_episodes=1, eval_episodes=1, tier="quick",
        ))
        assert len(result["eval_episodes"]) == 1, result
    import repro.tournament
    import repro.experiments.cli
    surrogate = scipy_modules()

    build_environment(
        task_name="mnist", n_nodes=2, budget=20.0, accuracy_mode="real",
        samples_per_node=10, test_size=10,
    )
    print(json.dumps({"surrogate": surrogate, "real": scipy_modules()}))
    """
)


def test_surrogate_process_never_imports_scipy():
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    surrogate = loaded["surrogate"]
    assert surrogate == [], (
        f"a surrogate-mode process loaded {len(surrogate)} scipy modules: "
        f"{surrogate}"
    )
    real = loaded["real"]
    assert real == [], (
        f"a real-accuracy process loaded {len(real)} scipy modules: {real}"
    )
