"""Invariant auditor: mechanically enforce the paper's per-round contracts.

:class:`InvariantAuditor` wraps an :class:`~repro.core.env.EdgeLearningEnv`
and, when auditing is enabled, re-derives every accounting identity the
Chiron mechanism rests on after each ``step()``:

========  ===================================================================
ID        Invariant (paper reference)
========  ===================================================================
``B1``    Budget never overspent: ``spent ≤ η`` and ``remaining ≥ 0`` (Eqn 9)
``B2``    Ledger conservation: ``spent + remaining == η`` and
          ``Σ round_payments == spent`` net of clawback (Algorithm 1 L17)
``B3``    Round accounting: ``remaining_before − remaining_after ==
          Σ payments`` for kept rounds; untouched otherwise
``B4``    Clawback bounds: ``0 ≤ clawback ≤`` escrowed round payment
``S1``    Allocation simplex: proportions non-negative, ``Σ p_r = 1``
          within :data:`SIMPLEX_ATOL` (Eqn 13)
``N1``    Per-node vectors finite; payments/ζ/times non-negative
``N2``    Participant frequencies inside ``[ζ_min, ζ_max]`` (Eqn 11)
``N3``    Individual rationality: participant utility ≥ reserve ``μ_i``
          (Eqn 8 participation constraint)
``N4``    Delivery partition: delivered/crashed/late/caught disjoint
          subsets of participants (fault pipeline)
``R1``    Reliability scores in ``[0, 1]``
``W1``    Exterior reward re-derives from Eqn 14 (λ·ΔA − T_k/scale)
``W2``    Inner reward re-derives from Eqn 15 / Lemma 1 idle-time sum
``P1``    Gymnasium protocol: obs shape/dtype/finiteness, flag types,
          info keys, monotone round index
``A1``    Accuracy in ``[0, 1]`` and non-decreasing only via kept rounds
========  ===================================================================

Enable/disable mirrors :mod:`repro.obs`: a module-level switch that the
wrapper consults with one global read, so a disabled auditor adds no
allocation to the hot path (guarded by
``tests/testing/test_invariants.py`` with the same tracemalloc pattern as
``tests/obs/test_obs_overhead.py``)::

    from repro.testing import invariants

    env = invariants.InvariantAuditor(build.env)
    with invariants.auditing():
        run_episode(env, mechanism)   # raises InvariantViolation on breach
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.env import EdgeLearningEnv, StepResult
from repro.core.rewards import exterior_reward, inner_reward

#: Absolute tolerance on the allocation-simplex sum |Σp − 1| (Eqn 13).
SIMPLEX_ATOL = 1e-12
#: Relative tolerance for re-derived money/reward identities.  These are
#: re-computed from the same doubles through a different summation order,
#: so exact equality is not guaranteed — but anything past a few hundred
#: ulps is a real accounting bug.
ACCOUNTING_RTOL = 1e-9
ACCOUNTING_ATOL = 1e-9

_enabled = False


def enable() -> None:
    """Turn invariant auditing on for every :class:`InvariantAuditor`."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn auditing off (wrappers become pure pass-throughs)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether auditing is currently active."""
    return _enabled


@contextmanager
def auditing():
    """Enable auditing for the duration of a ``with`` block."""
    was = _enabled
    enable()
    try:
        yield
    finally:
        if not was:
            disable()


class InvariantViolation(AssertionError):
    """A paper contract failed; carries the invariant ID and context."""

    def __init__(self, invariant: str, message: str, round_index: Optional[int] = None):
        self.invariant = invariant
        self.round_index = round_index
        where = f" (round {round_index})" if round_index is not None else ""
        super().__init__(f"[{invariant}]{where} {message}")


def _require(condition: bool, invariant: str, message: str, round_index=None):
    if not condition:
        raise InvariantViolation(invariant, message, round_index)


def check_simplex(proportions: Sequence[float], atol: float = SIMPLEX_ATOL) -> None:
    """``S1``: a valid allocation simplex (Eqn 13) — Σp = 1, p ≥ 0."""
    p = np.asarray(proportions, dtype=np.float64)
    _require(p.ndim >= 1 and p.size > 0, "S1", f"empty allocation {p!r}")
    _require(bool(np.all(np.isfinite(p))), "S1", f"non-finite allocation {p!r}")
    _require(bool(np.all(p >= 0.0)), "S1", f"negative allocation component in {p!r}")
    total = float(p.sum(axis=-1).max()) if p.ndim > 1 else float(p.sum())
    low = float(p.sum(axis=-1).min()) if p.ndim > 1 else total
    _require(
        abs(total - 1.0) <= atol and abs(low - 1.0) <= atol,
        "S1",
        f"allocation sums drift from 1 by {max(abs(total - 1), abs(low - 1)):.3e} "
        f"(atol {atol:g})",
    )


def check_ledger(env: EdgeLearningEnv) -> None:
    """``B1``/``B2``: ledger-level budget conservation (Eqn 9)."""
    ledger = env.ledger
    scale = max(1.0, abs(ledger.total))
    _require(
        ledger.spent <= ledger.total + ACCOUNTING_ATOL * scale,
        "B1",
        f"budget overspent: spent {ledger.spent!r} > η {ledger.total!r}",
    )
    _require(
        ledger.remaining >= -ACCOUNTING_ATOL * scale,
        "B1",
        f"negative remaining budget {ledger.remaining!r}",
    )
    _require(
        np.isclose(
            ledger.spent + ledger.remaining,
            ledger.total,
            rtol=ACCOUNTING_RTOL,
            atol=ACCOUNTING_ATOL * scale,
        ),
        "B2",
        f"spent {ledger.spent!r} + remaining {ledger.remaining!r} "
        f"!= η {ledger.total!r}",
    )
    recorded = float(np.sum(ledger.round_payments)) if ledger.round_payments else 0.0
    _require(
        np.isclose(recorded, ledger.spent, rtol=ACCOUNTING_RTOL, atol=ACCOUNTING_ATOL),
        "B2",
        f"Σ round_payments {recorded!r} != spent {ledger.spent!r}",
    )


def check_step_result(
    env: EdgeLearningEnv,
    prices: np.ndarray,
    result: StepResult,
    prev_remaining: float,
    prev_accuracy: float,
) -> None:
    """Per-round invariants over one :class:`StepResult`."""
    k = result.round_index
    n = env.n_nodes
    cfg = env.config

    # --- N1: shapes, finiteness, signs ------------------------------- #
    for name in ("payments", "zetas", "times", "utilities"):
        vec = np.asarray(getattr(result, name), dtype=np.float64)
        _require(vec.shape == (n,), "N1", f"{name} shape {vec.shape} != ({n},)", k)
        _require(bool(np.all(np.isfinite(vec))), "N1", f"non-finite {name}: {vec!r}", k)
    for name in ("payments", "zetas", "times"):
        vec = np.asarray(getattr(result, name))
        _require(bool(np.all(vec >= 0.0)), "N1", f"negative {name}: {vec!r}", k)

    # --- N2/N3: best-response contracts (Eqns 8, 11) ------------------ #
    # Failed participants have their round vectors zeroed by the fault
    # pipeline; the Eqn-11 bounds apply to nodes whose work stood.  The
    # checks run as column comparisons against the population (one numpy
    # pass instead of a per-participant Python loop, which is what makes
    # auditing a 1000-node fleet affordable).
    if env.injector is None:
        checked = np.asarray(result.participants, dtype=np.int64)
    else:
        checked = np.asarray(sorted(result.delivered), dtype=np.int64)
    if checked.size:
        zeta_min = env.population.column("zeta_min")[checked]
        zeta_max = env.population.column("zeta_max")[checked]
        reserve = env.population.column("reserve_utility")[checked]
        zetas = np.asarray(result.zetas, dtype=np.float64)[checked]
        utils = np.asarray(result.utilities, dtype=np.float64)[checked]
        in_range = (zeta_min - 1e-9 <= zetas) & (zetas <= zeta_max + 1e-9)
        if not bool(np.all(in_range)):
            i = int(checked[np.argmin(in_range)])
            _require(
                False,
                "N2",
                f"node {i} frequency {float(result.zetas[i])!r} outside "
                f"[{env.population.column('zeta_min')[i]}, "
                f"{env.population.column('zeta_max')[i]}]",
                k,
            )
        rational = utils >= reserve - 1e-9
        if not bool(np.all(rational)):
            i = int(checked[np.argmin(rational)])
            _require(
                False,
                "N3",
                f"participant {i} utility {result.utilities[i]!r} below "
                f"reserve {env.population.column('reserve_utility')[i]!r}",
                k,
            )

    # Payment identity: a delivered node is paid exactly p_i · ζ_i
    # (Eqn 10's linear contract).  Failed nodes are excluded — defenses
    # claw their payment back, and with defenses off their ζ is zeroed
    # while the payment stands.
    if result.delivered:
        idx = np.asarray(result.delivered, dtype=np.int64)
        expected_pay = prices[idx] * np.asarray(result.zetas)[idx]
        actual_pay = np.asarray(result.payments)[idx]
        ok = np.isclose(
            actual_pay, expected_pay, rtol=ACCOUNTING_RTOL, atol=ACCOUNTING_ATOL
        )
        if not bool(np.all(ok)):
            i = int(idx[np.argmin(ok)])
            _require(
                False,
                "N1",
                f"node {i} payment {result.payments[i]!r} != p·ζ "
                f"{float(prices[i]) * float(result.zetas[i])!r}",
                k,
            )

    # --- N4: delivery partition --------------------------------------- #
    participants = set(result.participants)
    delivered = set(result.delivered)
    failed = set(result.crashed) | set(result.late) | set(result.corrupted)
    _require(
        delivered <= participants,
        "N4",
        f"delivered {sorted(delivered)} not a subset of participants "
        f"{sorted(participants)}",
        k,
    )
    if result.round_kept and env.injector is not None:
        _require(
            not (delivered & (set(result.crashed) | set(result.late))),
            "N4",
            f"node both delivered and crashed/late: "
            f"{sorted(delivered & failed)}",
            k,
        )
    _require(
        not (participants & set(result.quarantined)),
        "N4",
        f"quarantined node participated: "
        f"{sorted(participants & set(result.quarantined))}",
        k,
    )

    # --- B3/B4: round-level money flow -------------------------------- #
    paid = float(np.asarray(result.payments).sum())
    scale = max(1.0, cfg.budget)
    if result.round_kept:
        delta = prev_remaining - result.remaining_budget
        _require(
            np.isclose(delta, paid, rtol=ACCOUNTING_RTOL, atol=ACCOUNTING_ATOL * scale),
            "B3",
            f"budget delta {delta!r} != Σ payments {paid!r}",
            k,
        )
    else:
        _require(
            result.remaining_budget == prev_remaining,
            "B3",
            f"discarded round moved the budget: {prev_remaining!r} -> "
            f"{result.remaining_budget!r}",
            k,
        )
        _require(paid == 0.0, "B3", f"discarded round paid {paid!r}", k)
    _require(
        result.clawback >= 0.0,
        "B4",
        f"negative clawback {result.clawback!r}",
        k,
    )
    _require(
        result.clawback <= paid + result.clawback + ACCOUNTING_ATOL * scale,
        "B4",
        f"clawback {result.clawback!r} exceeds escrowed payment "
        f"{paid + result.clawback!r}",
        k,
    )

    # --- R1: reliability scores --------------------------------------- #
    if result.reliability is not None:
        rel = np.asarray(result.reliability, dtype=np.float64)
        _require(
            rel.shape == (n,) and bool(np.all(np.isfinite(rel))),
            "R1",
            f"malformed reliability vector {rel!r}",
            k,
        )
        _require(
            bool(np.all((rel >= 0.0) & (rel <= 1.0))),
            "R1",
            f"reliability outside [0, 1]: {rel!r}",
            k,
        )

    # --- W1/W2: reward re-derivation (Eqns 14, 15) -------------------- #
    if result.round_kept:
        expected_ext = exterior_reward(
            cfg.rewards, result.accuracy, prev_accuracy, result.round_time
        )
        _require(
            np.isclose(result.reward_exterior, expected_ext, rtol=ACCOUNTING_RTOL,
                       atol=ACCOUNTING_ATOL),
            "W1",
            f"exterior reward {result.reward_exterior!r} != Eqn-14 "
            f"re-derivation {expected_ext!r}",
            k,
        )
        excluded = set(result.unavailable) | set(result.quarantined)
        recruitable = [i for i in range(n) if i not in excluded]
        expected_inn = inner_reward(
            cfg.rewards, np.asarray(result.times)[recruitable]
        )
        _require(
            np.isclose(result.reward_inner, expected_inn, rtol=ACCOUNTING_RTOL,
                       atol=ACCOUNTING_ATOL),
            "W2",
            f"inner reward {result.reward_inner!r} != Eqn-15 re-derivation "
            f"{expected_inn!r}",
            k,
        )
        _require(result.round_time >= 0.0, "W1", "negative round time", k)

    # --- A1: accuracy ------------------------------------------------- #
    _require(
        np.isfinite(result.accuracy) and -1e-12 <= result.accuracy <= 1.0 + 1e-12,
        "A1",
        f"accuracy {result.accuracy!r} outside [0, 1]",
        k,
    )
    if not result.round_kept:
        _require(
            result.accuracy == prev_accuracy,
            "A1",
            f"discarded round changed accuracy {prev_accuracy!r} -> "
            f"{result.accuracy!r}",
            k,
        )


def check_protocol(
    env: EdgeLearningEnv,
    step_output: Tuple,
    prev_round_index: int,
) -> None:
    """``P1``: the Gymnasium step contract (shape, dtype, flags, info)."""
    _require(
        isinstance(step_output, tuple) and len(step_output) == 5,
        "P1",
        f"step() must return a 5-tuple, got {type(step_output).__name__}",
    )
    obs, reward, terminated, truncated, info = step_output
    obs_arr = np.asarray(obs)
    _require(
        obs_arr.shape == (env.state_dim,),
        "P1",
        f"obs shape {obs_arr.shape} != ({env.state_dim},)",
    )
    _require(
        obs_arr.dtype == np.float64,
        "P1",
        f"obs dtype {obs_arr.dtype} != float64",
    )
    _require(bool(np.all(np.isfinite(obs_arr))), "P1", "non-finite observation")
    _require(
        isinstance(reward, (float, np.floating)) and np.isfinite(reward),
        "P1",
        f"reward {reward!r} is not a finite float",
    )
    _require(
        isinstance(terminated, (bool, np.bool_))
        and isinstance(truncated, (bool, np.bool_)),
        "P1",
        f"terminated/truncated must be bools, got "
        f"{type(terminated).__name__}/{type(truncated).__name__}",
    )
    _require(not (terminated and truncated), "P1", "terminated and truncated both set")
    _require(isinstance(info, dict), "P1", "info must be a dict")
    missing = {
        "step_result", "reward_inner", "remaining_budget", "round_index",
        "accuracy",
    } - set(info)
    _require(not missing, "P1", f"info missing keys {sorted(missing)}")
    result: StepResult = info["step_result"]
    _require(
        result.state is obs or np.array_equal(result.state, obs_arr),
        "P1",
        "obs disagrees with StepResult.state",
    )
    _require(
        reward == result.reward_exterior,
        "P1",
        f"reward {reward!r} != StepResult.reward_exterior "
        f"{result.reward_exterior!r}",
    )
    _require(
        terminated == (result.done and not result.truncated)
        and truncated == result.truncated,
        "P1",
        "terminated/truncated flags disagree with StepResult",
    )
    advanced = result.round_index == prev_round_index + 1
    discarded = (
        result.round_index == prev_round_index and not result.round_kept
    )
    _require(
        advanced or discarded,
        "P1",
        f"round index moved {prev_round_index} -> {result.round_index} "
        "(must advance by one, or stand still on a discarded overdraw round)",
        result.round_index,
    )


class InvariantAuditor:
    """Transparent env wrapper asserting the invariant catalogue per step.

    With auditing disabled (the default) every call forwards straight to
    the wrapped environment — no bookkeeping, no allocation — so the
    wrapper can be left installed permanently, exactly like a disabled
    :mod:`repro.obs` registry.  Enabling (:func:`enable` /
    :func:`auditing`) makes each ``step()`` re-derive the catalogue and
    raise :class:`InvariantViolation` on the first breach.

    Auditing reads only already-computed values (it never touches an RNG
    or mutates the environment), so an audited rollout is bit-identical
    to a bare one — a property the differential runner checks.
    """

    def __init__(self, env: EdgeLearningEnv):
        self._env = env
        self._prev_remaining = env.ledger.remaining
        self._prev_accuracy = env.accuracy
        self._prev_round = env.round_index
        self.rounds_audited = 0

    @property
    def env(self) -> EdgeLearningEnv:
        """The wrapped environment."""
        return self._env

    def reset(self, seed: Optional[int] = None):
        out = self._env.reset(seed=seed)
        if _enabled:
            self._prev_remaining = self._env.ledger.remaining
            self._prev_accuracy = self._env.accuracy
            self._prev_round = self._env.round_index
            check_ledger(self._env)
        return out

    def step(self, prices):
        if not _enabled:
            return self._env.step(prices)
        prev_remaining = self._env.ledger.remaining
        prev_accuracy = self._env.accuracy
        prev_round = self._env.round_index
        out = self._env.step(prices)
        result: StepResult = out[4]["step_result"]
        check_protocol(self._env, out, prev_round)
        check_step_result(
            self._env,
            np.asarray(prices, dtype=np.float64),
            result,
            prev_remaining=prev_remaining,
            prev_accuracy=prev_accuracy,
        )
        check_ledger(self._env)
        total = np.asarray(prices, dtype=np.float64).sum()
        if total > 0.0:
            # The posted prices factor as total · proportions (Eqn 13);
            # their normalization must be a valid allocation simplex.
            check_simplex(np.asarray(prices, dtype=np.float64) / total)
        self._prev_remaining = result.remaining_budget
        self._prev_accuracy = result.accuracy
        self._prev_round = result.round_index
        self.rounds_audited += 1
        return out

    def __getattr__(self, name: str):
        return getattr(self._env, name)
