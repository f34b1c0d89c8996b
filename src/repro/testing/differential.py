"""Differential runner: one engine for every execution-path identity claim.

The reproduction promises that the Chiron mechanism computes *the same
numbers* no matter which path executes it: the sequential reference env,
the masked vectorized env (any M), with observability on or off, with the
invariant auditor installed or not — and all of that both with and
without the fault pipeline.  Each claim used to live in its own
hand-rolled test; this module replays one :class:`~repro.testing.scenarios.Scenario`
through an N-way variant matrix and reports the first diverging
replica/round/field per variant.

Variants (each compared bit-exactly against its reference):

==================  ====================================================
``rerun``           fresh build + identical seeds (determinism baseline)
``obs_on``          same episode with :mod:`repro.obs` enabled
``audited``         same episode through an enabled
                    :class:`~repro.testing.invariants.InvariantAuditor`
``population_object``  the same episode on the object-node population
                    backend (per-node ``node_response`` loop) instead of
                    the SoA default — the API-redesign identity proof
``vector_m1``       the M=1 vectorized wrapper (replica 0 is the env)
``vector_m4``       M=4 lockstep vs the same four replicas stepped
                    individually (full multi-replica comparison)
``parallel_w4``     the same capture executed in 4 separate worker
                    processes via :mod:`repro.parallel` — every worker's
                    trace must be bit-identical to the in-process one
                    (process boundaries change nothing)
``journal_replay``  the capture run once through a journaled sweep
                    (:mod:`repro.resilience`), then *replayed* from the
                    journal without executing — the round-tripped trace
                    must be bit-identical (crash/resume changes nothing)
``train_w2``        a short Chiron *training* run on the scenario's
``train_w4``        fleet with trajectory collection fanned over 2 (4)
                    worker processes
                    (:func:`repro.parallel.train_parallel`, deterministic
                    mode) vs the identical run at ``workers=1`` — every
                    episode result and diagnostic must be bit-identical
                    (worker count changes wall-clock, never the curve)
==================  ====================================================

Faults on/off is the *scenario* axis: running the matrix over both the
``baseline`` and ``faulted`` scenarios covers the full
{sequential, vectorized M∈{1,4}, obs on/off, faults on/off} grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.core.vector import VectorizedEdgeLearningEnv
from repro.testing import invariants
from repro.testing.scenarios import (
    Scenario,
    capture,
    get_scenario,
    price_schedule,
    replica_schedules,
    replica_seeds,
)
from repro.testing.trace import (
    Divergence,
    EpisodeTrace,
    capture_sequential,
    first_divergence,
)

#: Variant names in matrix order.
VARIANTS = (
    "rerun",
    "obs_on",
    "audited",
    "population_object",
    "vector_m1",
    "vector_m4",
    "parallel_w4",
    "journal_replay",
    "train_w2",
    "train_w4",
)

#: The parallel-training identity variants: a seeded Chiron training run
#: with collection fanned over N workers vs the same run at workers=1.
TRAIN_VARIANTS = ("train_w2", "train_w4")

#: The subset that applies to mechanism-driven scenarios — the vectorized
#: wrapper replays pinned schedules, which a live mechanism doesn't have,
#: and the train variants build their *own* (Chiron) mechanism.
MECHANISM_VARIANTS = (
    "rerun",
    "obs_on",
    "audited",
    "population_object",
    "parallel_w4",
    "journal_replay",
)

#: Training-run shape shared by every train variant.  Short on purpose —
#: two sync rounds are enough to cross a PPO update boundary at the
#: quick tier, which is where worker count could plausibly leak in.
_TRAIN_EPISODES = 6
_TRAIN_SYNC_EVERY = 2


def supported_variants(scenario: Scenario) -> Sequence[str]:
    """The variant set a scenario can run.

    Mechanism-driven scenarios skip the vectorized and training variants
    (their action stream is the pinned mechanism's own); vectorized
    scenarios (``num_envs != 1``) skip the training variants (training
    drives a single sequential env).
    """
    if scenario.mechanism is not None:
        return MECHANISM_VARIANTS
    if scenario.num_envs != 1:
        return tuple(v for v in VARIANTS if v not in TRAIN_VARIANTS)
    return VARIANTS


@dataclass(frozen=True)
class DifferentialOutcome:
    """Result of one variant run: identical, or first divergence."""

    scenario: str
    variant: str
    rounds: int
    divergence: Optional[Divergence]

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        if self.identical:
            return (
                f"[OK]   {self.scenario}/{self.variant}: bit-identical over "
                f"{self.rounds} rounds"
            )
        return (
            f"[DIFF] {self.scenario}/{self.variant}:\n"
            f"{self.divergence.describe()}"
        )


def _sequential_trace(scenario: Scenario) -> EpisodeTrace:
    if scenario.mechanism is not None:
        from repro.testing.trace import capture_mechanism

        env = scenario.build_env()
        return capture_mechanism(
            env,
            scenario.build_mechanism(env),
            episode_seed=scenario.episode_seed,
            scenario=scenario.name,
            max_rounds=scenario.rounds,
        )
    env = scenario.build_env()
    schedule = price_schedule(env, scenario.rounds, scenario.schedule_seed)
    return capture_sequential(
        env, schedule, scenario.episode_seed, scenario=scenario.name
    )


def _capture_obs_on(scenario: Scenario) -> EpisodeTrace:
    _obs.enable()
    try:
        return _sequential_trace(scenario)
    finally:
        _obs.disable()


def _capture_audited(scenario: Scenario) -> EpisodeTrace:
    env = invariants.InvariantAuditor(scenario.build_env())
    if scenario.mechanism is not None:
        from repro.testing.trace import capture_mechanism

        # The mechanism drives the audited wrapper directly — its
        # ``__getattr__`` proxies the fleet/config reads the mechanism
        # factory needs, and auditing never touches an RNG.
        with invariants.auditing():
            trace = capture_mechanism(
                env,
                scenario.build_mechanism(env),
                episode_seed=scenario.episode_seed,
                scenario=scenario.name,
                max_rounds=scenario.rounds,
            )
    else:
        schedule = price_schedule(
            env.env, scenario.rounds, scenario.schedule_seed
        )
        with invariants.auditing():
            trace = capture_sequential(
                env, schedule, scenario.episode_seed, scenario=scenario.name
            )
    if env.rounds_audited == 0:
        raise RuntimeError(
            f"auditor saw no rounds for scenario {scenario.name!r}"
        )
    return trace


def _capture_population_object(scenario: Scenario) -> EpisodeTrace:
    """The scenario replayed on the object-node population backend.

    Rebuilds the identical fleet with ``population_backend="object"`` —
    the per-node ``node_response`` reference loop — and captures the same
    schedule.  Bit-identity against the SoA reference is the population
    API's central claim (docs/population.md).
    """
    import dataclasses

    build = dataclasses.replace(scenario.build, population_backend="object")
    return _sequential_trace(dataclasses.replace(scenario, build=build))


def _capture_vector(scenario: Scenario, num_envs: int) -> EpisodeTrace:
    """Scenario through the vectorized path with ``num_envs`` replicas."""
    import dataclasses

    vec_scenario = dataclasses.replace(scenario, num_envs=num_envs)
    return capture(vec_scenario)


def _capture_singles(scenario: Scenario, num_envs: int) -> EpisodeTrace:
    """The vector scenario's replicas, each stepped individually.

    Builds the identical replica set (replica 0 is the base env, 1..M-1
    spawned with the same derived seeds as
    :meth:`VectorizedEdgeLearningEnv.from_env`) but never goes through the
    vectorized step path — the sequential reference for ``vector_m4``.
    """
    env = scenario.build_env()
    venv = VectorizedEdgeLearningEnv.from_env(env, num_envs)
    schedules = replica_schedules(
        env, scenario.rounds, scenario.schedule_seed, num_envs
    )
    seeds = replica_seeds(scenario.episode_seed, num_envs)
    traces = [
        capture_sequential(
            venv.envs[i], schedules[i], seeds[i], scenario=scenario.name
        )
        for i in range(num_envs)
    ]
    return EpisodeTrace(
        scenario=scenario.name,
        episode_seed=seeds[0],
        replicas=[t.replicas[0] for t in traces],
        ledgers=[t.ledgers[0] for t in traces],
    )


def _capture_parallel(
    scenario: Scenario, workers: int = 4
) -> List[EpisodeTrace]:
    """The scenario captured in ``workers`` separate worker processes.

    Each worker rebuilds the *registered* scenario by name (hermetic work
    item — nothing crosses the process boundary but the name), so this
    only works for scenarios in :data:`repro.testing.scenarios.SCENARIOS`.
    """
    from repro.parallel.items import capture_item
    from repro.parallel.pool import PoolConfig, run_items

    get_scenario(scenario.name)  # fail fast on unregistered scenarios
    items = [capture_item(scenario.name) for _ in range(workers)]
    report = run_items(items, config=PoolConfig(workers=workers))
    if report.quarantined:
        failure = report.quarantined[0]
        raise RuntimeError(
            f"parallel capture of {scenario.name!r} lost item "
            f"{failure.index}: "
            f"{failure.errors[-1] if failure.errors else 'unknown'}"
        )
    return [
        EpisodeTrace.from_payload(item["trace"]) for item in report.results
    ]


def _capture_training(scenario: Scenario, workers: int) -> List[dict]:
    """A short seeded Chiron training run on the scenario's fleet.

    Builds the scenario's environment, binds a quick-tier Chiron
    mechanism seeded with ``scenario.mechanism_seed``, and trains for
    :data:`_TRAIN_EPISODES` episodes through
    :func:`repro.parallel.train_parallel` (deterministic mode) with
    trajectory collection fanned over ``workers`` processes.  Returns
    the canonical per-episode rows
    (:func:`repro.parallel.training_rows`) — the thing the determinism
    contract says must not depend on ``workers``.
    """
    from repro.experiments.mechanisms import make_mechanism
    from repro.parallel.training import train_parallel, training_rows

    env = scenario.build_env()
    mechanism = make_mechanism(
        "chiron", env, rng=scenario.mechanism_seed, tier="quick"
    )
    history = train_parallel(
        env,
        mechanism,
        _TRAIN_EPISODES,
        seed=scenario.episode_seed,
        workers=workers,
        sync_every=_TRAIN_SYNC_EVERY,
    )
    return training_rows(history)


def _training_divergence(
    expected: List[dict], actual: List[dict]
) -> Optional[Divergence]:
    """First episode/field where two training-row lists disagree.

    Rows are the JSON-canonical output of
    :func:`repro.parallel.training_rows`; comparison is exact (bitwise
    float equality), matching the deterministic-mode contract.
    """
    if len(expected) != len(actual):
        return Divergence(
            replica=0,
            round_index=None,
            field="num_episodes",
            expected=len(expected),
            actual=len(actual),
        )
    for episode, (exp, act) in enumerate(zip(expected, actual)):
        for section in ("result", "diagnostics"):
            exp_s, act_s = exp[section], act[section]
            for key in sorted(set(exp_s) | set(act_s)):
                marker = object()
                e = exp_s.get(key, marker)
                a = act_s.get(key, marker)
                if e is marker or a is marker or e != a:
                    return Divergence(
                        replica=0,
                        round_index=episode,
                        field=f"{section}.{key}",
                        expected=None if e is marker else e,
                        actual=None if a is marker else a,
                    )
    return None


def _capture_journal_replay(scenario: Scenario) -> EpisodeTrace:
    """The scenario journaled in-process, then replayed from the journal.

    The first ``run_sweep`` executes the capture and journals the settled
    result; the second runs over the *same* journal and must execute
    nothing — its trace comes purely from the JSON round-trip through the
    write-ahead log, which is exactly what a crash/resume would read.
    """
    import tempfile
    from pathlib import Path

    from repro.parallel.engine import run_sweep
    from repro.parallel.items import capture_item

    get_scenario(scenario.name)  # fail fast on unregistered scenarios
    journal = Path(tempfile.mkdtemp(prefix="diff-journal-")) / "j.jsonl"
    items = [capture_item(scenario.name)]
    live = run_sweep(items, workers=1, journal=journal).raise_on_quarantine()
    replayed = run_sweep(
        items, workers=1, journal=journal
    ).raise_on_quarantine()
    if replayed.fingerprint() != live.fingerprint():
        raise RuntimeError(
            f"journal replay of {scenario.name!r} changed the sweep "
            f"fingerprint"
        )
    return EpisodeTrace.from_payload(replayed.items[0]["trace"])


def run_variant(
    scenario: Scenario,
    variant: str,
    reference: Optional[EpisodeTrace] = None,
) -> DifferentialOutcome:
    """Run one variant and diff it against its reference trace.

    ``reference`` (the plain sequential capture) is computed on demand
    when not supplied; ``vector_m4`` ignores it and builds its own
    multi-replica singles reference; ``parallel_w4`` compares against the
    in-process :func:`~repro.testing.scenarios.capture` of the scenario;
    the ``train_w*`` variants ignore it too and compare a multi-worker
    training run against the same run at ``workers=1``.
    """
    if variant in TRAIN_VARIANTS:
        if scenario.mechanism is not None or scenario.num_envs != 1:
            raise ValueError(
                f"variant {variant!r} trains a Chiron run on a single "
                f"sequential env; scenario {scenario.name!r} supports "
                f"{supported_variants(scenario)}"
            )
        expected = _capture_training(scenario, workers=1)
        workers = int(variant.rsplit("_w", 1)[1])
        actual = _capture_training(scenario, workers=workers)
        return DifferentialOutcome(
            scenario=scenario.name,
            variant=variant,
            rounds=len(actual),
            divergence=_training_divergence(expected, actual),
        )
    if variant == "parallel_w4":
        expected = capture(scenario)
        divergence = None
        rounds = 0
        for trace in _capture_parallel(scenario, workers=4):
            rounds = trace.num_rounds
            divergence = first_divergence(expected, trace)
            if divergence is not None:
                break
        return DifferentialOutcome(
            scenario=scenario.name,
            variant=variant,
            rounds=rounds,
            divergence=divergence,
        )
    if variant == "journal_replay":
        expected = capture(scenario)
        actual = _capture_journal_replay(scenario)
        return DifferentialOutcome(
            scenario=scenario.name,
            variant=variant,
            rounds=actual.num_rounds,
            divergence=first_divergence(expected, actual),
        )
    if variant in ("vector_m1", "vector_m4") and scenario.mechanism is not None:
        raise ValueError(
            f"variant {variant!r} needs a pinned price schedule; "
            f"mechanism-driven scenario {scenario.name!r} supports "
            f"{MECHANISM_VARIANTS}"
        )
    if variant == "vector_m4":
        expected = _capture_singles(scenario, 4)
        actual = _capture_vector(scenario, 4)
    else:
        expected = reference if reference is not None else _sequential_trace(scenario)
        if variant == "rerun":
            actual = _sequential_trace(scenario)
        elif variant == "obs_on":
            actual = _capture_obs_on(scenario)
        elif variant == "audited":
            actual = _capture_audited(scenario)
        elif variant == "population_object":
            actual = _capture_population_object(scenario)
        elif variant == "vector_m1":
            actual = _capture_vector(scenario, 1)
        else:
            raise ValueError(
                f"unknown variant {variant!r}; available: {VARIANTS}"
            )
    return DifferentialOutcome(
        scenario=scenario.name,
        variant=variant,
        rounds=actual.num_rounds,
        divergence=first_divergence(expected, actual),
    )


def run_matrix(
    scenario_name: str,
    variants: Optional[Sequence[str]] = None,
) -> List[DifferentialOutcome]:
    """Run every variant of one scenario against the sequential reference."""
    scenario = get_scenario(scenario_name)
    reference = _sequential_trace(scenario)
    supported = set(supported_variants(scenario))
    return [
        run_variant(scenario, variant, reference=reference)
        for variant in (variants or supported_variants(scenario))
        if variant in supported  # matrix runs skip unsupported quietly
    ]


def matrix_report(
    scenario_names: Sequence[str],
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, List[DifferentialOutcome]]:
    """The full scenarios × variants grid."""
    return {name: run_matrix(name, variants) for name in scenario_names}
