#!/usr/bin/env python3
"""Train → save → reload → deploy: the policy-export workflow.

Trains Chiron, saves both sub-agents into one ``.npz`` archive, restores
it into a freshly constructed agent, verifies the restored policy prices
identically, then deploys it with per-round telemetry export.

Run:  python examples/checkpoint_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import build_environment
from repro.core.mechanism import Observation
from repro.experiments import make_mechanism, record_episode, train_mechanism


def main() -> None:
    build = build_environment(
        task_name="mnist", n_nodes=5, budget=40.0, accuracy_mode="surrogate",
        seed=0,
    )
    env = build.env
    workdir = Path(tempfile.mkdtemp(prefix="chiron-ckpt-"))

    # 1. Train.
    agent = make_mechanism("chiron", env, rng=1, tier="quick")
    history = train_mechanism(env, agent, episodes=80)
    print(f"trained {len(history)} episodes")

    # 2. Save (plain npz: portable, no pickling).
    path = agent.save(workdir / "chiron.npz")
    print(f"saved checkpoint: {path} ({path.stat().st_size / 1024:.1f} KiB)")

    # 3. Restore into a brand-new agent (same fleet size required).
    deployed = make_mechanism("chiron", env, rng=999, tier="quick")
    deployed.load(path)
    deployed.eval_mode()

    # 4. Verify behavioural equality against the original (frozen).
    agent.eval_mode()
    state, _ = env.reset()
    obs = Observation(state, env.ledger.remaining, 0)
    agent.begin_episode(obs)
    deployed.begin_episode(obs)
    np.testing.assert_array_equal(
        agent.propose_prices(obs), deployed.propose_prices(obs)
    )
    print("restored policy prices identically ✓")

    # 5. Deploy with telemetry.
    trace = record_episode(env, deployed)
    csv_path = trace.to_csv(workdir / "deploy_trace.csv")
    print(
        f"deployed episode: {len(trace)} rounds, final accuracy "
        f"{trace.series('accuracy')[-1]:.3f}; trace at {csv_path}"
    )


if __name__ == "__main__":
    main()
