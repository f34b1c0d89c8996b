"""Canonical episode traces: capture, serialize, digest, diff.

A *trace* is the bit-exact record of everything observable while driving
an :class:`~repro.core.env.EdgeLearningEnv` through one seeded episode:
per-round prices, the Gymnasium protocol tuple, and every
:class:`~repro.core.env.StepResult` field, plus the final budget-ledger
summary.  The digested body keeps a list of replicas (one entry per
trace), so the committed golden files keep their digests.  Traces serialize to JSON losslessly — Python's ``repr``-based
float formatting round-trips IEEE-754 doubles exactly — so equality of
the canonical JSON (and of its SHA-256 digest) is equality of the
underlying floating-point streams, bit for bit.

Two traces are compared with :func:`first_divergence`, which walks
replica by replica, round by round, field by field and reports the first
place they differ — the primitive under both the golden-trace harness
(:mod:`repro.testing.golden`) and the differential runner
(:mod:`repro.testing.differential`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from repro.core.env import EdgeLearningEnv, StepResult

#: Bump when the canonical round record gains/loses fields; verify refuses
#: to compare traces across schema versions instead of mis-diffing them.
TRACE_SCHEMA_VERSION = 1

#: StepResult scalars recorded verbatim.
SCALAR_FIELDS = (
    "reward_exterior",
    "reward_inner",
    "done",
    "truncated",
    "round_kept",
    "accuracy",
    "round_time",
    "efficiency",
    "remaining_budget",
    "round_index",
    "clawback",
)

#: StepResult per-node float arrays (recorded as lists, exact repr).
ARRAY_FIELDS = ("payments", "zetas", "times", "utilities")

#: StepResult node-id lists.
LIST_FIELDS = (
    "participants",
    "unavailable",
    "delivered",
    "crashed",
    "late",
    "corrupted",
    "quarantined",
)


def _floats(values) -> List[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64).ravel()]


def canonical_round(
    step: int,
    prices: np.ndarray,
    obs: np.ndarray,
    reward: float,
    terminated: bool,
    truncated: bool,
    result: StepResult,
) -> dict:
    """One environment step as a flat, JSON-exact record."""
    record: dict = {
        "step": int(step),
        "prices": _floats(prices),
        "obs": _floats(obs),
        "reward": float(reward),
        "terminated": bool(terminated),
        "protocol_truncated": bool(truncated),
    }
    for name in SCALAR_FIELDS:
        value = getattr(result, name)
        record[name] = bool(value) if isinstance(value, (bool, np.bool_)) else (
            int(value) if isinstance(value, (int, np.integer)) else float(value)
        )
    for name in ARRAY_FIELDS:
        record[name] = _floats(getattr(result, name))
    for name in LIST_FIELDS:
        record[name] = [int(i) for i in getattr(result, name)]
    record["state"] = _floats(result.state)
    record["reliability"] = (
        None if result.reliability is None else _floats(result.reliability)
    )
    return record


def ledger_summary(env: EdgeLearningEnv) -> dict:
    """Final budget-ledger accounting (Eqn 9's η, net of clawback)."""
    ledger = env.ledger
    return {
        "total": float(ledger.total),
        "spent": float(ledger.spent),
        "remaining": float(ledger.remaining),
        "closed": bool(ledger.closed),
        "rounds_charged": int(ledger.rounds_charged),
        "round_payments": _floats(ledger.round_payments),
        "clawback_total": float(ledger.clawback_total),
    }


@dataclass
class EpisodeTrace:
    """A canonical trace: one round list and one ledger per replica.

    Every capture records a single environment, so ``replicas`` and
    ``ledgers`` hold one entry each.
    """

    scenario: str
    episode_seed: int
    replicas: List[List[dict]]
    ledgers: List[dict]
    meta: dict = field(default_factory=dict)

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def num_rounds(self) -> int:
        return sum(len(rounds) for rounds in self.replicas)

    def body(self) -> dict:
        """The digested portion (everything except free-form metadata)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "episode_seed": int(self.episode_seed),
            "replicas": self.replicas,
            "ledgers": self.ledgers,
        }

    def digest(self) -> str:
        payload = json.dumps(
            self.body(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return "sha256:" + hashlib.sha256(payload).hexdigest()

    def to_payload(self) -> dict:
        """JSON-ready document (golden-file format)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "scenario": self.scenario,
            "episode_seed": int(self.episode_seed),
            "digest": self.digest(),
            "meta": self.meta,
            "num_replicas": self.num_replicas,
            "num_rounds": self.num_rounds,
            "replicas": self.replicas,
            "ledgers": self.ledgers,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EpisodeTrace":
        schema = payload.get("schema")
        if schema != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema {schema!r} unsupported (expected "
                f"{TRACE_SCHEMA_VERSION}); regenerate with --update"
            )
        return cls(
            scenario=payload["scenario"],
            episode_seed=payload["episode_seed"],
            replicas=payload["replicas"],
            ledgers=payload["ledgers"],
            meta=payload.get("meta", {}),
        )


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #
def capture_sequential(
    env: EdgeLearningEnv,
    schedule: np.ndarray,
    episode_seed: int,
    scenario: str = "adhoc",
    meta: Optional[dict] = None,
) -> EpisodeTrace:
    """Drive one seeded episode under a fixed ``(K, N)`` price schedule."""
    env.reset(seed=episode_seed)
    rounds: List[dict] = []
    for k in range(len(schedule)):
        if env.done:
            break
        prices = schedule[k]
        obs, reward, terminated, truncated, info = env.step(prices)
        rounds.append(
            canonical_round(
                k, prices, obs, reward, terminated, truncated,
                info["step_result"],
            )
        )
    return EpisodeTrace(
        scenario=scenario,
        episode_seed=episode_seed,
        replicas=[rounds],
        ledgers=[ledger_summary(env)],
        meta=dict(meta or {}),
    )


def capture_mechanism(
    env: EdgeLearningEnv,
    mechanism,
    episode_seed: int,
    scenario: str = "adhoc",
    max_rounds: Optional[int] = None,
    meta: Optional[dict] = None,
) -> EpisodeTrace:
    """Drive one seeded episode with a live mechanism in the loop.

    Unlike :func:`capture_sequential` the action stream here depends on
    the mechanism's internal state (policy parameters, RNG), so this form
    is used where the *mechanism* is part of the contract under test —
    e.g. the obs-on/off identity check.
    """
    from repro.core.mechanism import Observation

    state, _ = env.reset(seed=episode_seed)
    observation = Observation(state, env.ledger.remaining, env.round_index)
    mechanism.begin_episode(observation)
    rounds: List[dict] = []
    k = 0
    while not env.done and (max_rounds is None or k < max_rounds):
        prices = mechanism.propose_prices(observation)
        obs, reward, terminated, truncated, info = env.step(prices)
        result = info["step_result"]
        mechanism.observe(prices, result)
        rounds.append(
            canonical_round(k, prices, obs, reward, terminated, truncated, result)
        )
        observation = Observation(
            result.state, result.remaining_budget, result.round_index
        )
        k += 1
    mechanism.end_episode()
    return EpisodeTrace(
        scenario=scenario,
        episode_seed=episode_seed,
        replicas=[rounds],
        ledgers=[ledger_summary(env)],
        meta=dict(meta or {}),
    )


# --------------------------------------------------------------------- #
# diffing
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Divergence:
    """First point where two traces disagree."""

    replica: int
    round_index: Optional[int]  # None for structural / ledger divergence
    field: str
    expected: Any
    actual: Any

    def describe(self) -> str:
        where = (
            f"replica {self.replica}"
            if self.round_index is None
            else f"replica {self.replica}, round {self.round_index}"
        )
        return (
            f"first divergence at {where}, field {self.field!r}:\n"
            f"  expected: {_shorten(self.expected)}\n"
            f"  actual:   {_shorten(self.actual)}"
        )


def _shorten(value: Any, limit: int = 200) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _values_equal(a: Any, b: Any, rtol: float, atol: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (np.isnan(a) and np.isnan(b)):
            return True
        if rtol == 0.0 and atol == 0.0:
            return False
        return bool(np.isclose(a, b, rtol=rtol, atol=atol, equal_nan=True))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _values_equal(x, y, rtol, atol) for x, y in zip(a, b)
        )
    return a == b


def first_divergence(
    expected: EpisodeTrace,
    actual: EpisodeTrace,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> Optional[Divergence]:
    """Walk both traces and return the first mismatch (None when identical).

    With the default zero tolerances the comparison is bit-exact; non-zero
    ``rtol``/``atol`` relax only float (and float-list) fields, for
    cross-platform verification where libm ulp differences are expected.
    """
    if expected.num_replicas != actual.num_replicas:
        return Divergence(
            replica=0,
            round_index=None,
            field="num_replicas",
            expected=expected.num_replicas,
            actual=actual.num_replicas,
        )
    for r, (exp_rounds, act_rounds) in enumerate(
        zip(expected.replicas, actual.replicas)
    ):
        if len(exp_rounds) != len(act_rounds):
            return Divergence(
                replica=r,
                round_index=None,
                field="num_rounds",
                expected=len(exp_rounds),
                actual=len(act_rounds),
            )
        for k, (exp_round, act_round) in enumerate(zip(exp_rounds, act_rounds)):
            keys = set(exp_round) | set(act_round)
            # Stable order: protocol fields first, then alphabetical.
            for key in sorted(keys, key=lambda f: (f != "step", f)):
                if key not in exp_round or key not in act_round:
                    return Divergence(r, k, key, exp_round.get(key), act_round.get(key))
                if not _values_equal(exp_round[key], act_round[key], rtol, atol):
                    return Divergence(r, k, key, exp_round[key], act_round[key])
    for r, (exp_ledger, act_ledger) in enumerate(
        zip(expected.ledgers, actual.ledgers)
    ):
        for key in sorted(set(exp_ledger) | set(act_ledger)):
            if not _values_equal(
                exp_ledger.get(key), act_ledger.get(key), rtol, atol
            ):
                return Divergence(
                    r, None, f"ledger.{key}", exp_ledger.get(key), act_ledger.get(key)
                )
    return None
