"""The benchmark's workloads: closed loops driven through the public API.

Each workload is one closed loop in one interpreter, in process
(``workers=1``).  ``setup`` builds what the first timed episode needs and
counts toward ``setup_s``; ``body`` is the timed part (``wall_s``);
``fingerprint`` hashes the body's output, outside the timing.  README.md
beside this file says what each workload runs and why it was chosen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict

import numpy as np

from repro.core.builder import BuildConfig
from repro.experiments import runner
from repro.experiments.mechanisms import make_mechanism
from repro.parallel import episode_seeds, run_sweep, sweep_item
from repro.utils.rng import spawn_seeds

#: hardware draw shared by the surrogate workloads (the paper fleet); a
#: seed-drawn fleet would change how much work a budget buys.
FLEET_SEED = 0

FIG4_MECHANISMS = ("chiron", "drl_single", "greedy")


@dataclass
class Outcome:
    """What one timed body produced."""

    episodes: int
    output: Any
    failed: int = 0
    retries: int = 0
    quarantined: int = 0


def _digest(arrays) -> str:
    """sha256 over a sequence of arrays, shapes and dtypes included."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------- #
# fig4_quick
# --------------------------------------------------------------------- #
def fig4_setup(seed: int, size: Dict[str, Any]):
    items = [
        sweep_item(
            build=BuildConfig(
                task_name="mnist",
                n_nodes=5,
                budget=budget,
                accuracy_mode="surrogate",
                seed=FLEET_SEED,
                max_rounds=300,
            ).to_dict(),
            mechanism=name,
            rng_root=seed,
            rng_stream=f"{name}/{budget}/0",
            train_episodes=size["train_episodes"],
            eval_episodes=size["eval_episodes"],
            tier="quick",
            key={"mechanism": name, "budget": budget, "seed_offset": 0},
        )
        for name in FIG4_MECHANISMS
        for budget in size["budgets"]
    ]
    # Warm-up: the first environment and each mechanism, as every sweep
    # cell builds them.
    env = BuildConfig.from_dict(items[0]["build"]).build().env
    for name in FIG4_MECHANISMS:
        make_mechanism(name, env, rng=seed, tier="quick")
    return items


def fig4_body(items, progress: Dict[str, int]) -> Outcome:
    per_cell = items[0]["train_episodes"] + items[0]["eval_episodes"]
    progress["episodes"] = len(items) * per_cell
    sweep = run_sweep(items, workers=1)
    return Outcome(
        episodes=progress["episodes"],
        output=sweep,
        failed=len(sweep.quarantined) * per_cell,
        retries=sweep.retries,
        quarantined=len(sweep.quarantined),
    )


def fig4_fingerprint(sweep) -> str:
    return sweep.fingerprint()


# --------------------------------------------------------------------- #
# rollout_collect
# --------------------------------------------------------------------- #
def rollout_setup(seed: int, size: Dict[str, Any]):
    env = BuildConfig(
        task_name="mnist",
        n_nodes=5,
        budget=100.0,
        accuracy_mode="surrogate",
        seed=FLEET_SEED,
        max_rounds=300,
    ).build().env
    mechanism = make_mechanism("chiron", env, rng=seed, tier="quick")
    mechanism.train_mode()
    # Untrained episodes here run ~40 rounds; the body derives more seeds
    # if shorter episodes ever need them.
    seeds = episode_seeds(seed, size["transitions"] // 20 + 1)
    return env, mechanism, seed, seeds, size["transitions"]


def rollout_body(state, progress: Dict[str, int]) -> Outcome:
    env, mechanism, seed, seeds, target = state
    collected = []
    transitions = 0
    while transitions < target:
        if len(collected) == len(seeds):
            # Prefix-stable: the first seeds stay the same.
            seeds = episode_seeds(seed, 2 * len(seeds))
        env_seed, sample_seed = spawn_seeds(seeds[len(collected)], 2)
        progress["episodes"] += 1
        mechanism.begin_collect(sample_seed)
        runner.run_episode(env, mechanism, seed=env_seed)
        episode = mechanism.take_collected()
        collected.append(episode)
        transitions += len(episode["exterior"]["rewards"])
    return Outcome(episodes=len(collected), output=collected)


def rollout_fingerprint(collected) -> str:
    return _digest(
        episode[agent][key]
        for episode in collected
        for agent in ("exterior", "inner")
        for key in sorted(episode[agent])
    )


# --------------------------------------------------------------------- #
# fl_real
# --------------------------------------------------------------------- #
class _RoundLog:
    """Passes a mechanism through and keeps each round's accuracy and
    payments, which the fingerprint hashes."""

    def __init__(self, mechanism):
        self.mechanism = mechanism
        self.rounds = []

    def begin_episode(self, obs) -> None:
        self.mechanism.begin_episode(obs)

    def propose_prices(self, obs):
        return self.mechanism.propose_prices(obs)

    def observe(self, prices, result) -> None:
        self.rounds.append((result.accuracy, result.payments.copy()))
        self.mechanism.observe(prices, result)

    def end_episode(self):
        return self.mechanism.end_episode()


def fl_setup(seed: int, size: Dict[str, Any]):
    env = BuildConfig(
        task_name="mnist",
        n_nodes=3,
        samples_per_node=size["samples_per_node"],
        test_size=size["test_size"],
        local_epochs=5,
        # Ample: every episode ends at max_rounds, never on the budget.
        budget=100.0,
        max_rounds=size["max_rounds"],
        accuracy_mode="real",
        seed=seed,
    ).build().env
    log = _RoundLog(make_mechanism("fixed_price", env))
    # The first reset evaluates the freshly built model once.
    env.reset(seed=seed)
    return env, log, seed


def fl_body(state, progress: Dict[str, int]) -> Outcome:
    env, log, seed = state
    progress["episodes"] = 1
    runner.run_episode(env, log, seed=seed)
    return Outcome(episodes=1, output=log.rounds)


def fl_fingerprint(rounds) -> str:
    return _digest(
        array
        for accuracy, payments in rounds
        for array in (np.float64(accuracy), payments)
    )


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    setup: Callable
    body: Callable
    fingerprint: Callable[[Any], str]
    #: "full" is the benchmark; "smoke" the seconds-scale self-check.
    sizes: Dict[str, Dict[str, Any]]


WORKLOADS: Dict[str, Workload] = {
    "fig4_quick": Workload(
        fig4_setup,
        fig4_body,
        fig4_fingerprint,
        {
            "full": dict(budgets=(20.0, 100.0), train_episodes=40, eval_episodes=5),
            "smoke": dict(budgets=(20.0, 100.0), train_episodes=2, eval_episodes=1),
        },
    ),
    "rollout_collect": Workload(
        rollout_setup,
        rollout_body,
        rollout_fingerprint,
        {"full": dict(transitions=12000), "smoke": dict(transitions=200)},
    ),
    "fl_real": Workload(
        fl_setup,
        fl_body,
        fl_fingerprint,
        {
            "full": dict(samples_per_node=120, test_size=400, max_rounds=1),
            "smoke": dict(samples_per_node=20, test_size=50, max_rounds=1),
        },
    ),
}
