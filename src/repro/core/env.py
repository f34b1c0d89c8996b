"""The edge-learning incentive MDP (§V).

One :meth:`EdgeLearningEnv.step` is one training round ``k``:

1. the mechanism posts a per-node price vector ``p_{·,k}``;
2. every node best-responds (Eqn 11) and decides participation;
3. payments are charged against the budget ``η`` — an overdraw discards
   the round and terminates the episode (Algorithm 1, line 17);
4. participants run one federated round; the learning process reports the
   new global accuracy ``A(ω_k)``;
5. exterior (Eqn 14) and inner (Eqn 15) rewards are emitted and the
   history-window state advances.

The environment is mechanism-agnostic: Chiron and every baseline interact
with it through the same price-vector action.

The step/reset surface follows the Gymnasium convention:

* ``reset(seed=None) -> (obs, info)``
* ``step(prices) -> (obs, reward, terminated, truncated, info)``

where ``reward`` is the exterior reward and ``info["step_result"]`` carries
the full :class:`StepResult` (inner reward, payments, fault outcome, …).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.rewards import RewardConfig, exterior_reward, inner_reward
from repro.core.state import ExteriorStateEncoder
from repro.economics.budget import BudgetLedger
from repro.economics.timing import time_efficiency
from repro.faults.injector import FaultConfig, FaultInjector
from repro.faults.reliability import ReliabilityTracker
from repro.fl.accuracy import LearningProcess
from repro.population import Population, as_population
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive

# Substream tag decorrelating the learning-noise rebase from the churn
# stream (which uses [seed_base, episode]) on seeded resets.
_LEARNING_STREAM = 0x4C4E  # "LN"

_log = get_logger("core.env")


@dataclass(frozen=True)
class EnvConfig:
    """Environment parameters (paper §V-A / §VI-A defaults).

    ``availability`` extends the paper's model with node churn: each round
    every node is independently reachable with this probability.  An
    unavailable node ignores its price (trains nothing, is paid nothing)
    and — unlike a node priced out — does not count as idle in the inner
    reward, since no allocation could have recruited it.  The default 1.0
    reproduces the paper exactly.

    ``faults`` enables *mid-round* failures on top of pre-round churn: a
    paid node may crash, straggle past the round deadline, or return a
    corrupt update (see :mod:`repro.faults`).  With ``fault_defenses``
    on (the default), the environment escrows payments and claws back the
    share of non-delivering nodes, drops stragglers at the deadline
    (``round_deadline_factor`` × the fleet's characteristic round time),
    quarantines corrupt senders with exponential backoff, and appends
    per-node reliability scores to the exterior state.  With defenses off
    every accepted price is paid regardless of delivery — the control
    showing why the accounting matters.  ``faults=None`` (default)
    reproduces the fault-free model bit for bit.
    """

    budget: float  # η
    local_epochs: int = 5  # σ
    history: int = 4  # L, the state history window
    max_rounds: int = 500  # safety truncation (the paper's episodes are
    # naturally bounded by the budget; this cap only guards degenerate
    # near-zero pricing policies)
    availability: float = 1.0  # per-node per-round reachability probability
    availability_seed: int = 0  # stream for churn draws
    rewards: RewardConfig = field(default_factory=RewardConfig)
    faults: Optional[FaultConfig] = None  # mid-round fault model
    fault_defenses: bool = True  # deadline + clawback + quarantine
    round_deadline_factor: Optional[float] = 4.0  # deadline = factor × the
    # fleet's characteristic round time; None disables the deadline

    def __post_init__(self):
        check_positive("budget", self.budget)
        check_positive("local_epochs", self.local_epochs)
        check_positive("history", self.history)
        check_positive("max_rounds", self.max_rounds)
        if not 0.0 < self.availability <= 1.0:
            raise ValueError(
                f"availability must be in (0, 1], got {self.availability}"
            )
        if self.round_deadline_factor is not None:
            check_positive("round_deadline_factor", self.round_deadline_factor)

    def to_dict(self) -> dict:
        """Plain-dict form (nested reward/fault configs included)."""
        from repro.utils.config import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EnvConfig":
        """Reconstruct from :meth:`to_dict` output (registry entries)."""
        from repro.utils.config import config_from_dict

        return config_from_dict(cls, data)


@dataclass(slots=True)
class StepResult:
    """Everything observable after one round.

    Treat instances as read-only records: they are constructed once per
    round on the env hot path (``slots`` keeps that cheap) and may be
    shared across consumers.
    """

    state: np.ndarray  # next exterior state s_{k+1}^E
    reward_exterior: float  # r_k^E (Eqn 14)
    reward_inner: float  # r_k^I (Eqn 15)
    done: bool  # episode over (budget out / truncated)
    truncated: bool  # True when ended by max_rounds, not budget
    round_kept: bool  # False when the round overdrew and was discarded
    accuracy: float  # A(ω_k) — unchanged if the round was discarded
    round_time: float  # T_k (0 when no participants / discarded)
    efficiency: float  # Eqn (16) over participants (0 if none)
    participants: List[int]
    unavailable: List[int]  # nodes unreachable this round (churn extension)
    payments: np.ndarray  # per-node payments actually made
    zetas: np.ndarray  # per-node chosen frequencies (0 for decliners)
    times: np.ndarray  # per-node total times (0 for decliners)
    utilities: np.ndarray  # per-node utilities
    remaining_budget: float
    round_index: int
    # --- fault/robustness extension (defaults reproduce the fault-free
    # model: everyone who participates delivers) ---------------------- #
    delivered: List[int] = field(default_factory=list)  # updates aggregated
    crashed: List[int] = field(default_factory=list)  # no update arrived
    late: List[int] = field(default_factory=list)  # missed the deadline
    corrupted: List[int] = field(default_factory=list)  # corrupt update drawn
    quarantined: List[int] = field(default_factory=list)  # excluded this round
    clawback: float = 0.0  # escrowed payment refunded for undelivered work
    reliability: Optional[np.ndarray] = None  # per-node EWMA delivery rate


class EdgeLearningEnv:
    """Budget-bounded pricing MDP over a fleet of self-interested nodes."""

    def __init__(
        self,
        profiles,
        learning: LearningProcess,
        config: EnvConfig,
        backend: str = "soa",
    ):
        #: The node engine.  ``profiles`` may be a profile sequence (coerced
        #: into the requested backend) or an existing Population, which is
        #: used as-is — both backends compute identical numbers (the
        #: differential matrix proves it), so the default is the vectorized
        #: one.
        self.population: Population = as_population(profiles, backend=backend)
        if learning.num_nodes != self.population.n_nodes:
            raise ValueError(
                f"learning process covers {learning.num_nodes} nodes but "
                f"{self.population.n_nodes} profiles were given"
            )
        self.learning = learning
        self.config = config
        self.n_nodes = self.population.n_nodes

        sigma = config.local_epochs
        #: price at which node i runs flat out (ζ* = ζ_max); prices above
        #: this are pure overpayment.
        self.price_caps = self.population.price_caps(sigma)
        #: smallest price at which node i participates at all.
        self.price_floors = self.population.price_floors(sigma)
        #: characteristic scales used for state normalization and by agents
        #: to size their action ranges.
        self.max_total_price = float(self.price_caps.sum())
        self.min_total_price = float(self.price_floors.sum())
        time_scale = self.population.characteristic_time(sigma)
        if config.rewards.time_scale is None:
            # Resolve the reward normalization to this fleet's natural
            # round-time scale (see RewardConfig.time_scale).
            import dataclasses

            config = dataclasses.replace(
                config,
                rewards=dataclasses.replace(config.rewards, time_scale=time_scale),
            )
            self.config = config
        self.encoder = ExteriorStateEncoder(
            n_nodes=self.n_nodes,
            history=config.history,
            budget_scale=config.budget,
            price_scale=float(np.mean(self.price_caps)),
            time_scale=time_scale,
            max_rounds=config.max_rounds,
            include_reliability=config.faults is not None,
        )
        self.ledger = BudgetLedger(config.budget)
        self._all_recruitable = np.ones(self.n_nodes, dtype=bool)
        self._all_participants = list(range(self.n_nodes))
        self._seed_base = config.availability_seed
        self._churn_rng = np.random.default_rng(config.availability_seed)
        if config.faults is not None:
            self.injector: Optional[FaultInjector] = FaultInjector(
                config.faults, self.n_nodes
            )
            self.reliability: Optional[ReliabilityTracker] = ReliabilityTracker(
                self.n_nodes
            )
            self.round_deadline: Optional[float] = (
                config.round_deadline_factor * time_scale
                if config.round_deadline_factor is not None
                else None
            )
        else:
            self.injector = None
            self.reliability = None
            self.round_deadline = None
        self._episode = -1
        self._accuracy = 0.0
        self._round = 0
        self._done = True  # must reset() before stepping

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def state_dim(self) -> int:
        return self.encoder.dim

    @property
    def accuracy(self) -> float:
        """Current global model accuracy A(ω_k)."""
        return self._accuracy

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def done(self) -> bool:
        return self._done

    # ------------------------------------------------------------------ #
    # episode control
    # ------------------------------------------------------------------ #
    def reset(self, seed: Optional[int] = None) -> Tuple[np.ndarray, dict]:
        """Start a new episode; returns ``(initial_state, info)``.

        ``seed`` rebases the per-episode churn/fault substreams, so
        ``reset(seed=s)`` is reproducible regardless of how many episodes
        ran before it.  Without a seed, episodes keep advancing through the
        substream sequence fixed at construction.
        """
        if seed is not None:
            self._seed_base = int(seed)
            self._episode = -1
            # Rebase the learning-process noise stream too (when the
            # process supports it): a seeded reset must pin *every*
            # stochastic stream, not just churn/faults, or the episode's
            # accuracy trajectory depends on how many episodes ran before.
            reseed = getattr(self.learning, "reseed", None)
            if reseed is not None:
                reseed(np.random.default_rng([self._seed_base, _LEARNING_STREAM]))
        self.ledger.reset()
        self.encoder.reset()
        self._episode += 1
        # Each episode gets its own churn substream so seeded evaluation
        # episodes are individually reproducible (the stream would
        # otherwise keep advancing across episodes).
        self._churn_rng = np.random.default_rng([self._seed_base, self._episode])
        if self.injector is not None:
            self.injector.reset(self._episode)
        if self.reliability is not None:
            self.reliability.reset()
        self._accuracy = float(self.learning.reset())
        self._round = 0
        self._done = False
        obs = self.encoder.encode(self.ledger.remaining, self._round)
        info = {
            "remaining_budget": self.ledger.remaining,
            "round_index": self._round,
            "accuracy": self._accuracy,
        }
        return obs, info

    def step(
        self, prices: Sequence[float]
    ) -> Tuple[np.ndarray, float, bool, bool, dict]:
        """Run one round; returns ``(obs, reward, terminated, truncated, info)``.

        ``reward`` is the exterior reward (Eqn 14).  ``info`` carries the
        full :class:`StepResult` under ``"step_result"`` plus the fields a
        training loop reads every step (``reward_inner``,
        ``remaining_budget``, ``round_index``, ``accuracy``).  ``prices``
        must be a finite, non-negative ``(n_nodes,)`` vector; anything
        else raises ``ValueError``.
        """
        with _obs.span("env.step"):
            result = self._advance(prices)
        if _obs.enabled():
            self._record_obs(result)
        terminated = result.done and not result.truncated
        info = {
            "step_result": result,
            "reward_inner": result.reward_inner,
            "remaining_budget": result.remaining_budget,
            "round_index": result.round_index,
            "accuracy": result.accuracy,
        }
        return result.state, result.reward_exterior, terminated, result.truncated, info

    def _advance(self, prices: Sequence[float]) -> StepResult:
        """Run one round under the posted per-node price vector."""
        if self._done:
            raise RuntimeError("step() on a finished episode; call reset()")
        prices = np.asarray(prices, dtype=np.float64)
        if prices.shape != (self.n_nodes,):
            raise ValueError(
                f"prices must have shape ({self.n_nodes},), got {prices.shape}"
            )
        if not np.isfinite(prices).all() or prices.min() < 0.0:
            raise ValueError(f"prices must be finite and non-negative: {prices}")

        cfg = self.config
        if cfg.availability < 1.0:
            available = self._churn_rng.random(self.n_nodes) < cfg.availability
            unavailable = [i for i in range(self.n_nodes) if not available[i]]
        else:
            available = None  # everyone reachable; skip the mask entirely
            unavailable = []

        # Quarantined nodes (repeat fault offenders) are not recruitable
        # this round — like churned-out nodes, but by server decision.
        if self.reliability is not None and cfg.fault_defenses:
            quarantined_now = self.reliability.quarantined(self._round)
        else:
            quarantined_now = []
        if available is None and not quarantined_now:
            recruitable = self._all_recruitable  # shared constant, not mutated
        else:
            recruitable = (
                available.copy()
                if available is not None
                else np.ones(self.n_nodes, dtype=bool)
            )
            for i in quarantined_now:
                recruitable[i] = False

        # One population-level response per round (this is the hot path).
        # The span wraps the whole batch — never a per-node body — so the
        # disabled-mode hook cost is independent of fleet size.  Nodes that
        # respond but are not recruitable this round (churned out or
        # quarantined) are zeroed exactly as the old per-node loop skipped
        # them.
        with _obs.span("env.respond"):
            # Prices were validated above; skip the backend's re-check.
            batch = self.population.respond(
                prices, cfg.local_epochs, validate=False
            )
            if recruitable is self._all_recruitable:
                active = batch.participates
            else:
                active = batch.participates & recruitable
            if active.all():
                # Everyone recruited: the masks are identities, so alias the
                # response arrays directly (they are freshly allocated per
                # respond() call and the batch is not used after this block).
                payments = batch.payment
                zetas = batch.zeta
                times = batch.time
                utilities = batch.utility
            else:
                payments = np.where(active, batch.payment, 0.0)
                zetas = np.where(active, batch.zeta, 0.0)
                times = np.where(active, batch.time, 0.0)
                utilities = np.where(active, batch.utility, 0.0)
            if active is batch.participates and payments is batch.payment:
                # active.all() held above: every node participates, so the
                # id list is just range(n) (copied — it escapes into the
                # StepResult).
                participants: List[int] = self._all_participants.copy()
            else:
                # nonzero()[0] is flatnonzero minus a wrapper layer
                # (active is already 1-D).
                participants = active.nonzero()[0].tolist()
            total_payment = float(payments.sum())

        reliability_scores = (
            self.reliability.scores() if self.reliability is not None else None
        )

        # --- no participation: wasted round, nothing charged ------------- #
        if not participants:
            self._round += 1
            truncated = self._round >= cfg.max_rounds
            self._done = truncated
            self.encoder.record_round(zetas, prices, times)
            state = self.encoder.encode(
                self.ledger.remaining, self._round, reliability=reliability_scores
            )
            penalty = cfg.rewards.no_participation_penalty
            return StepResult(
                state=state,
                reward_exterior=-cfg.rewards.time_weight * penalty,
                reward_inner=0.0,
                done=self._done,
                truncated=truncated,
                round_kept=False,
                accuracy=self._accuracy,
                round_time=0.0,
                efficiency=0.0,
                participants=[],
                unavailable=unavailable,
                payments=np.zeros(self.n_nodes),
                zetas=zetas,
                times=times,
                utilities=utilities,
                remaining_budget=self.ledger.remaining,
                round_index=self._round,
                quarantined=quarantined_now,
                reliability=reliability_scores,
            )

        # --- budget check (Algorithm 1 line 17) -------------------------- #
        # With faults enabled the payment is *escrowed*: held against the
        # budget now, reconciled against actual delivery below.
        if self.injector is not None:
            kept = self.ledger.escrow(total_payment)
        else:
            kept = self.ledger.charge(total_payment)
        if not kept:
            # Overdraw: the round is discarded and learning stops.
            self._done = True
            state = self.encoder.encode(
                0.0, self._round, reliability=reliability_scores
            )
            return StepResult(
                state=state,
                reward_exterior=0.0,
                reward_inner=0.0,
                done=True,
                truncated=False,
                round_kept=False,
                accuracy=self._accuracy,
                round_time=0.0,
                efficiency=0.0,
                participants=[],
                unavailable=unavailable,
                payments=np.zeros(self.n_nodes),
                zetas=np.zeros(self.n_nodes),
                times=np.zeros(self.n_nodes),
                utilities=np.zeros(self.n_nodes),
                remaining_budget=self.ledger.remaining,
                round_index=self._round,
                quarantined=quarantined_now,
                reliability=reliability_scores,
            )

        # --- mid-round faults: who actually delivers? -------------------- #
        # Without an injector nobody fails mid-round, so ``delivered`` can
        # alias ``participants`` (neither list is ever mutated).
        delivered = participants if self.injector is None else list(participants)
        crashed: List[int] = []
        late: List[int] = []
        corrupt: List[int] = []
        poisoned: List[int] = []
        clawback = 0.0
        if self.injector is not None:
            self.injector.begin_round(self._round)
            groups = FaultInjector.split(self.injector.draw(participants))
            crashed = groups["crashed"]
            corrupt = groups["corrupt"]
            for i in groups["stragglers"]:
                times[i] *= self.injector.config.straggler_factor
            if cfg.fault_defenses and self.round_deadline is not None:
                late = [
                    i for i in groups["stragglers"] if times[i] > self.round_deadline
                ]
            # A crash is physical — no update arrives either way.  The
            # defenses decide what happens to stragglers (deadline) and
            # corrupt updates (validation catches them; without it they
            # poison the aggregate).
            caught = corrupt if cfg.fault_defenses else []
            poisoned = [] if cfg.fault_defenses else corrupt
            failed = sorted(set(crashed) | set(late) | set(caught))
            delivered = [i for i in participants if i not in set(failed)]
            if cfg.fault_defenses:
                delivered_payment = float(payments[delivered].sum())
            else:
                delivered_payment = total_payment  # paid regardless
            clawback = self.ledger.settle(delivered_payment)
            for i in failed:
                if cfg.fault_defenses:
                    payments[i] = 0.0  # clawed back
                times[i] = 0.0
                zetas[i] = 0.0
            if crashed or late or corrupt or quarantined_now or clawback > 0.0:
                _log.debug(
                    "round %d fault pipeline: crashed=%s late=%s corrupt=%s "
                    "quarantined=%s clawback=%.4f",
                    self._round,
                    crashed,
                    late,
                    corrupt,
                    quarantined_now,
                    clawback,
                )

        # --- the federated round ----------------------------------------- #
        previous_accuracy = self._accuracy
        if delivered:
            with _obs.span("env.learning"):
                if poisoned:
                    # Corrupt updates reached aggregation (defenses off).
                    self._accuracy = float(
                        self.learning.step(delivered, poisoned_ids=poisoned)
                    )
                else:
                    self._accuracy = float(self.learning.step(delivered))
            if len(delivered) == len(times):
                participant_times = times  # full fleet: skip the fancy-index copy
            else:
                participant_times = times[delivered]
            round_time = float(participant_times.max())
            efficiency = time_efficiency(participant_times, makespan=round_time)
        else:
            # Everyone failed mid-round: the global model is untouched.
            round_time = 0.0
            efficiency = 0.0

        if self.reliability is not None:
            failed_ids = sorted(set(participants) - set(delivered))
            self.reliability.update_round(
                self._round,
                delivered=delivered,
                failed=failed_ids,
                offenders=corrupt,
            )
            reliability_scores = self.reliability.scores()

        r_ext = exterior_reward(
            cfg.rewards, self._accuracy, previous_accuracy, round_time
        )
        # Over *available* (and non-quarantined) nodes: `times` holds 0 for
        # priced-out decliners and mid-round failures, so they count as
        # fully idle; unavailable/quarantined nodes are excluded — no
        # allocation could have recruited them.
        if recruitable is self._all_recruitable:
            # Full-recruitment rounds skip the boolean-mask copy
            # (inner_reward never mutates its argument); when every
            # recruited node also delivered, round_time above *is*
            # float(times.max()), so the max reduction is reused.
            r_inn = inner_reward(
                cfg.rewards,
                times,
                makespan=round_time if len(delivered) == len(times) else None,
            )
        else:
            r_inn = inner_reward(cfg.rewards, times[recruitable])

        self._round += 1
        self.encoder.record_round(zetas, prices, times)
        truncated = self._round >= cfg.max_rounds
        budget_out = self.ledger.remaining <= 0
        self._done = truncated or budget_out
        state = self.encoder.encode(
            self.ledger.remaining, self._round, reliability=reliability_scores
        )
        return StepResult(
            state=state,
            reward_exterior=r_ext,
            reward_inner=r_inn,
            done=self._done,
            truncated=truncated and not budget_out,
            round_kept=True,
            accuracy=self._accuracy,
            round_time=round_time,
            efficiency=efficiency,
            participants=participants,
            unavailable=unavailable,
            payments=payments,
            zetas=zetas,
            times=times,
            utilities=utilities,
            remaining_budget=self.ledger.remaining,
            round_index=self._round,
            delivered=delivered,
            crashed=crashed,
            late=late,
            corrupted=corrupt,
            quarantined=quarantined_now,
            clawback=clawback,
            reliability=reliability_scores,
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _record_obs(self, result: StepResult) -> None:
        """Publish one finished round to the live obs registry.

        Called only when observability is enabled; reads the already
        computed :class:`StepResult`, so it can never perturb the
        environment's dynamics or random streams.
        """
        _obs.counter("env.rounds").inc()
        if result.round_kept:
            _obs.counter("env.rounds.kept").inc()
            _obs.histogram("env.round_time").observe(result.round_time)
            _obs.histogram("env.participants").observe(len(result.participants))
            _obs.ewma("env.efficiency").update(result.efficiency)
            _obs.counter("env.payments").inc(float(result.payments.sum()))
        elif result.done and not result.truncated:
            _obs.counter("env.rounds.overdraw").inc()
        else:
            _obs.counter("env.rounds.no_participation").inc()
        _obs.gauge("env.accuracy").set(result.accuracy)
        _obs.gauge("env.remaining_budget").set(result.remaining_budget)
        if result.crashed:
            _obs.counter("env.faults.crashed").inc(len(result.crashed))
        if result.late:
            _obs.counter("env.faults.late").inc(len(result.late))
        if result.corrupted:
            _obs.counter("env.faults.corrupted").inc(len(result.corrupted))
        if result.quarantined:
            _obs.counter("env.faults.quarantined").inc(len(result.quarantined))
        if result.clawback:
            _obs.counter("env.clawback").inc(result.clawback)
        if result.done:
            _obs.counter("env.episodes").inc()
        if _obs.get_registry().sinks:
            # Stream the full per-round record (a superset of the
            # telemetry flattening) to any attached JSONL/event sinks.
            from repro.experiments.telemetry import flatten_step

            record = flatten_step(result)
            record["episode"] = self._episode
            record["terminated"] = bool(result.done and not result.truncated)
            record["truncated"] = bool(result.truncated)
            _obs.event("env.round", record)
