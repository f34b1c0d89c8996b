"""Canonical seeded scenarios shared by golden traces and the diff matrix.

A :class:`Scenario` pins everything a capture needs to be bit-reproducible:
the :class:`~repro.core.builder.BuildConfig` (fleet, budget η, fault
model), the episode seed fed to ``reset(seed=...)``, and the seed of the
deterministic price *schedule* that drives the episode.  Schedules are
generated independently of the environment's random streams (a seeded
random walk over total price and allocation logits), so the exact same
action sequence can be replayed against every execution path — the
property the differential runner (:mod:`repro.testing.differential`)
builds on.

The committed golden scenarios cover the paper's regimes:

* ``baseline`` — fault-free model, the paper's Algorithm 1 exactly;
* ``faulted`` — churn + mixed crash/straggler/corrupt faults with the
  escrow/clawback defenses on (Eqn 9 accounting under failure);
* ``population_n5`` — the paper's N=5 fleet under churn + faults, the
  anchor for the object-vs-SoA population-backend identity proof;
* ``stackelberg_n5`` — the mechanism-zoo Stackelberg leader pricing its
  per-round best response on the paper's N=5 fleet: a *mechanism-driven*
  scenario (the action stream comes from the live mechanism, not a
  pinned schedule), pinning the zoo's closed-form solver output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.builder import BuildConfig
from repro.core.env import EdgeLearningEnv
from repro.faults.injector import FaultConfig
from repro.testing.trace import (
    EpisodeTrace,
    capture_mechanism,
    capture_sequential,
)


@dataclass(frozen=True)
class Scenario:
    """A fully pinned, replayable episode recipe.

    Two flavors share the class: *schedule-driven* scenarios (the
    default) replay a pinned price schedule, so the action stream is
    independent of what executes it; *mechanism-driven* scenarios
    (``mechanism`` set to a registered mechanism name) put the live
    mechanism in the loop — the action stream is the mechanism's own
    deterministic output under ``mechanism_seed``, which is exactly what
    a zoo golden trace needs to pin.
    """

    name: str
    description: str
    build: BuildConfig
    episode_seed: int
    schedule_seed: int
    rounds: int = 80  # schedule horizon (capture stops early at env.done)
    mechanism: Optional[str] = None  # registered mechanism name, or None
    mechanism_seed: int = 0  # RNG seed handed to the mechanism factory

    def build_env(self) -> EdgeLearningEnv:
        """A fresh, deterministic environment for this scenario."""
        return self.build.build().env

    def build_mechanism(self, env) -> "object":
        """A fresh, seeded mechanism instance bound to ``env``."""
        if self.mechanism is None:
            raise ValueError(f"scenario {self.name!r} is schedule-driven")
        from repro.experiments.mechanisms import make_mechanism

        return make_mechanism(
            self.mechanism, env, rng=self.mechanism_seed, tier="quick"
        )


def price_schedule(
    env: EdgeLearningEnv, rounds: int, seed: int
) -> np.ndarray:
    """A deterministic ``(rounds, N)`` price schedule for ``env``'s fleet.

    A seeded geometric random walk over the *total* posted price (bounded
    by the fleet's participation floor and saturation cap) times a
    random-walk softmax allocation — the same factorization the inner
    agent uses (Eqn 13), so schedules exercise realistic action structure:
    partial participation, saturation, and occasional starvation rounds.

    Depends only on ``(seed, rounds)`` and the fleet's price scales (which
    are deterministic given the scenario's :class:`BuildConfig`), never on
    the environment's random streams.
    """
    rng = np.random.default_rng(seed)
    n = env.n_nodes
    lo = np.log(0.6 * env.min_total_price)
    hi = np.log(1.1 * env.max_total_price)
    log_total = 0.5 * (lo + hi)
    logits = rng.normal(0.0, 0.5, size=n)
    schedule = np.empty((rounds, n), dtype=np.float64)
    for k in range(rounds):
        log_total = float(np.clip(log_total + rng.normal(0.0, 0.2), lo, hi))
        logits = logits + rng.normal(0.0, 0.3, size=n)
        shifted = np.exp(logits - logits.max())
        proportions = shifted / shifted.sum()
        schedule[k] = np.exp(log_total) * proportions
    return schedule


def capture(scenario: Scenario) -> EpisodeTrace:
    """Build the scenario's environment and record its canonical trace."""
    env = scenario.build_env()
    meta = {
        "description": scenario.description,
        "build": scenario.build.to_dict(),
        "schedule_seed": scenario.schedule_seed,
        "rounds": scenario.rounds,
    }
    if scenario.mechanism is not None:
        meta["mechanism"] = scenario.mechanism
        meta["mechanism_seed"] = scenario.mechanism_seed
        return capture_mechanism(
            env,
            scenario.build_mechanism(env),
            episode_seed=scenario.episode_seed,
            scenario=scenario.name,
            max_rounds=scenario.rounds,
            meta=meta,
        )
    schedule = price_schedule(env, scenario.rounds, scenario.schedule_seed)
    return capture_sequential(
        env,
        schedule,
        episode_seed=scenario.episode_seed,
        scenario=scenario.name,
        meta=meta,
    )


#: The committed golden scenarios (keys are golden-file stems).
SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="baseline",
            description=(
                "Fault-free 4-node fleet, η=15 — the paper's Algorithm 1 "
                "loop with no churn or failures."
            ),
            build=BuildConfig(n_nodes=4, budget=15.0, seed=123),
            episode_seed=99,
            schedule_seed=2024,
        ),
        Scenario(
            name="faulted",
            description=(
                "Mixed crash/straggler/corrupt faults (rate 0.3) with "
                "escrow/clawback defenses and 0.85 availability churn."
            ),
            build=BuildConfig(
                n_nodes=4,
                budget=15.0,
                seed=123,
                availability=0.85,
                faults=FaultConfig.mixed(0.3, seed=7),
            ),
            episode_seed=99,
            schedule_seed=2025,
        ),
        Scenario(
            name="population_n5",
            description=(
                "The paper's N=5 fleet under churn and mixed faults — the "
                "population-engine proof scenario: the differential "
                "matrix's population_object variant replays it on the "
                "object-node backend and requires bit-identity with the "
                "SoA default."
            ),
            build=BuildConfig(
                n_nodes=5,
                budget=18.0,
                seed=321,
                availability=0.9,
                faults=FaultConfig.mixed(0.25, seed=11),
            ),
            episode_seed=77,
            schedule_seed=2027,
        ),
        Scenario(
            name="stackelberg_n5",
            description=(
                "Mechanism-zoo Stackelberg leader on the paper's N=5 "
                "fleet, fault-free: the closed-form per-round "
                "best-response prices drive the episode, pinning the "
                "zoo solver's exact output (recruit-cheapest-prefix + "
                "deadline bisection)."
            ),
            build=BuildConfig(n_nodes=5, budget=18.0, seed=321),
            episode_seed=77,
            schedule_seed=2028,  # unused (mechanism-driven), kept pinned
            rounds=40,
            mechanism="stackelberg",
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
