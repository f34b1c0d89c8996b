"""Differential runner: one engine for every execution-path identity claim.

The reproduction promises that an episode computes *the same numbers* no
matter which path executes it: a fresh rerun, observability on or off,
the invariant auditor installed or not, either population backend or a
worker process — and all of that both with and without the fault
pipeline.  Each claim used to live in its own
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
``parallel_w4``     the same capture executed in 4 separate worker
                    processes via :mod:`repro.parallel` — every worker's
                    trace must be bit-identical to the in-process one
                    (process boundaries change nothing)
==================  ====================================================

Every variant applies to both kinds of scenario: schedule-driven ones
replay a pinned price schedule, mechanism-driven ones (``stackelberg_n5``)
put the live mechanism in the loop.  Faults on/off is the *scenario*
axis: the ``baseline`` and ``faulted`` scenarios run the same variants
with the fault pipeline off and on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.testing import invariants
from repro.testing.scenarios import (
    Scenario,
    capture,
    get_scenario,
    price_schedule,
)
from repro.testing.trace import (
    Divergence,
    EpisodeTrace,
    capture_mechanism,
    capture_sequential,
    first_divergence,
)

#: Variant names in matrix order.
VARIANTS = (
    "rerun",
    "obs_on",
    "audited",
    "population_object",
    "parallel_w4",
)


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


def run_variant(
    scenario: Scenario,
    variant: str,
    reference: Optional[EpisodeTrace] = None,
) -> DifferentialOutcome:
    """Run one variant and diff it against its reference trace.

    ``reference`` (the plain sequential capture) is computed on demand
    when not supplied; ``parallel_w4`` compares against the in-process
    :func:`~repro.testing.scenarios.capture` of the scenario instead.
    """
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
    expected = reference if reference is not None else _sequential_trace(scenario)
    if variant == "rerun":
        actual = _sequential_trace(scenario)
    elif variant == "obs_on":
        actual = _capture_obs_on(scenario)
    elif variant == "audited":
        actual = _capture_audited(scenario)
    elif variant == "population_object":
        actual = _capture_population_object(scenario)
    else:
        raise ValueError(f"unknown variant {variant!r}; available: {VARIANTS}")
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
    return [
        run_variant(scenario, variant, reference=reference)
        for variant in (variants or VARIANTS)
    ]


def matrix_report(
    scenario_names: Sequence[str],
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, List[DifferentialOutcome]]:
    """The full scenarios × variants grid."""
    return {name: run_matrix(name, variants) for name in scenario_names}
