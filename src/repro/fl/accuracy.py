"""Accuracy substrates: real federated training and a calibrated surrogate.

The incentive environment only consumes a scalar — the global model's test
accuracy after each round.  Two interchangeable backends provide it:

* :class:`RealTrainingAccuracy` — actually runs the numpy CNN federated
  round (exact paper pipeline; expensive).
* :class:`SurrogateAccuracy` — a saturating power-law accuracy curve whose
  per-task parameters are calibrated against the real simulator
  (``tests/integration/test_surrogate_fidelity.py``).  Used for paper-scale
  DRL runs where the paper burned GPU-days retraining CNNs inside every
  PPO episode (DESIGN.md §3, substitution 3).

Both implement the same duck-typed interface::

    process.reset() -> float            # initial accuracy
    process.step(participant_ids) -> float  # accuracy after one round
    process.data_weights -> np.ndarray  # normalized D_i / D
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.fl.session import FederatedSession
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_in_range, check_positive, check_probability_vector


@runtime_checkable
class LearningProcess(Protocol):
    """What the incentive environment needs from the learning side."""

    @property
    def num_nodes(self) -> int: ...

    @property
    def data_weights(self) -> np.ndarray: ...

    def reset(self) -> float: ...

    def step(self, participant_ids: Sequence[int]) -> float: ...


@dataclass(frozen=True)
class SurrogateCurve:
    """Saturating accuracy-vs-effective-rounds curve.

    ``A(e) = a_max − (a_max − a_init) · (1 + e/τ)^(−β)`` where ``e`` is the
    cumulative participation-weighted round count.  ``a_init`` is chance
    accuracy, ``a_max`` the task ceiling; ``τ`` and ``β`` set the speed of
    convergence and the strength of diminishing returns.
    """

    a_init: float
    a_max: float
    tau: float
    beta: float
    noise_std: float = 0.002

    def __post_init__(self):
        check_in_range("a_init", self.a_init, 0.0, 1.0)
        check_in_range("a_max", self.a_max, 0.0, 1.0)
        if self.a_max <= self.a_init:
            raise ValueError(
                f"a_max ({self.a_max}) must exceed a_init ({self.a_init})"
            )
        check_positive("tau", self.tau)
        check_positive("beta", self.beta)
        check_positive("noise_std", self.noise_std, strict=False)

    def accuracy(self, effective_rounds: float) -> float:
        """Noise-free curve value at ``effective_rounds >= 0``."""
        check_positive("effective_rounds", effective_rounds, strict=False)
        return self._value(effective_rounds)

    def _value(self, effective_rounds: float) -> float:
        """:meth:`accuracy` without the argument check (env hot path —
        callers must guarantee ``effective_rounds >= 0``)."""
        gap = self.a_max - self.a_init
        return self.a_max - gap * (1.0 + effective_rounds / self.tau) ** (-self.beta)


#: Curves calibrated against the real numpy-CNN simulator on the synthetic
#: tasks (5 nodes, IID split, σ=5 local epochs, batch 10, lr 0.01).  The
#: ceilings respect the paper's difficulty ordering.
SURROGATE_CURVES: Dict[str, SurrogateCurve] = {
    "mnist": SurrogateCurve(a_init=0.10, a_max=0.965, tau=0.5, beta=1.5),
    "fashion_mnist": SurrogateCurve(a_init=0.10, a_max=0.885, tau=0.8, beta=1.2),
    "cifar10": SurrogateCurve(a_init=0.10, a_max=0.700, tau=1.5, beta=1.0),
}


class SurrogateAccuracy:
    """Surrogate learning process driven by a :class:`SurrogateCurve`.

    Each :meth:`step` advances the effective round count by the participating
    nodes' combined data weight (partial participation learns slower), then
    reports the curve value plus small observation noise.  Reported accuracy
    is clamped to be non-decreasing only in its noise-free component — the
    observed value can dip, as real federated accuracy does.
    """

    def __init__(
        self,
        curve: SurrogateCurve,
        data_weights: Sequence[float],
        rng: RNGLike = None,
        poison_factor: float = 5.0,
    ):
        weights = np.asarray(data_weights, dtype=np.float64)
        check_probability_vector("data_weights", weights)
        check_positive("poison_factor", poison_factor, strict=False)
        self.curve = curve
        self._weights = weights
        # Full-fleet rounds are the common case; n distinct in-range ids
        # are exactly range(n), whose fancy-indexed sum equals this.
        self._full_weight_sum = float(weights.sum())
        self._rng = as_generator(rng)
        #: how strongly one corrupt update that reaches aggregation undoes
        #: progress, in units of its sender's honest contribution (the
        #: surrogate analogue of a poisoned FedAvg step).
        self.poison_factor = float(poison_factor)
        self._effective_rounds = 0.0
        self._accuracy = curve.a_init

    @property
    def num_nodes(self) -> int:
        return self._weights.shape[0]

    @property
    def data_weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def effective_rounds(self) -> float:
        return self._effective_rounds

    def reset(self) -> float:
        self._effective_rounds = 0.0
        self._accuracy = self.curve.a_init
        return self._accuracy

    def clone(self, rng: RNGLike = None) -> "SurrogateAccuracy":
        """A fresh process over the same curve/weights with its own noise
        stream — used to spawn independent environment replicas."""
        return SurrogateAccuracy(
            self.curve, self._weights, rng=rng, poison_factor=self.poison_factor
        )

    def reseed(self, rng: RNGLike) -> None:
        """Rebase the observation-noise stream (seeded episode resets).

        Without this, ``EdgeLearningEnv.reset(seed=s)`` would rebase the
        churn/fault substreams but leave the accuracy noise wherever the
        previous episodes left it, silently breaking the seeded-reset
        reproducibility contract (caught by the repro.testing tooling).
        """
        self._rng = as_generator(rng)

    def step(
        self,
        participant_ids: Sequence[int],
        poisoned_ids: Sequence[int] = (),
    ) -> float:
        """Advance by the aggregated updates' combined data weight.

        ``poisoned_ids`` (a subset of ``participant_ids``) marks corrupt
        updates that reached aggregation: each *subtracts*
        ``poison_factor`` times its honest contribution, modelling a
        poisoned FedAvg step dragging the model backwards.
        """
        # Full-fleet fast path: the env hot path passes the sorted
        # ``[0..n)`` list every all-participate round — one list compare
        # replaces the set construction and range check entirely.
        full_list = getattr(self, "_full_fleet_list", None)
        if full_list is None:
            full_list = self._full_fleet_list = list(range(self.num_nodes))
        if (
            type(participant_ids) is list
            and participant_ids == full_list
            and not poisoned_ids
        ):
            delta = self._full_weight_sum
            self._effective_rounds = max(0.0, self._effective_rounds + delta)
            clean = self.curve._value(self._effective_rounds)
            noisy = clean + self._rng.normal(0.0, self.curve.noise_std)
            self._accuracy = min(max(float(noisy), 0.0), 1.0)
            return self._accuracy
        id_set = set(participant_ids)
        if not id_set:
            raise ValueError("step() needs at least one participant")
        full_fleet = getattr(self, "_full_fleet_set", None)
        if full_fleet is None:
            full_fleet = self._full_fleet_set = frozenset(range(self.num_nodes))
        if id_set != full_fleet and (
            min(id_set) < 0 or max(id_set) >= self.num_nodes
        ):
            raise IndexError(
                f"participant ids {sorted(id_set)} out of range "
                f"[0, {self.num_nodes})"
            )
        poisoned_set = set(poisoned_ids)
        if poisoned_set:
            ids = sorted(id_set)
            poisoned = sorted(poisoned_set)
            if not poisoned_set <= id_set:
                raise ValueError(
                    f"poisoned_ids {poisoned} must be a subset of "
                    f"participants {ids}"
                )
            honest = [i for i in ids if i not in poisoned_set]
            delta = float(self._weights[honest].sum()) - self.poison_factor * float(
                self._weights[poisoned].sum()
            )
        elif len(id_set) == self.num_nodes:
            # n distinct in-range ids are exactly range(n) — use the
            # precomputed full-fleet sum.
            delta = self._full_weight_sum
        else:
            delta = float(self._weights[sorted(id_set)].sum())
        self._effective_rounds = max(0.0, self._effective_rounds + delta)
        clean = self.curve._value(self._effective_rounds)  # clamped >= 0 above
        noisy = clean + self._rng.normal(0.0, self.curve.noise_std)
        self._accuracy = min(max(float(noisy), 0.0), 1.0)
        return self._accuracy


class RealTrainingAccuracy:
    """Learning process backed by actual federated CNN training."""

    def __init__(self, session: FederatedSession):
        self.session = session
        sizes = session.data_sizes().astype(float)
        self._weights = sizes / sizes.sum()
        self._initial_accuracy: Optional[float] = None

    @property
    def num_nodes(self) -> int:
        return self.session.n_nodes

    @property
    def data_weights(self) -> np.ndarray:
        return self._weights.copy()

    def reset(self) -> float:
        self.session.reset()
        if self._initial_accuracy is None:
            self._initial_accuracy = self.session.server.evaluate().accuracy
        return self._initial_accuracy

    def step(
        self,
        participant_ids: Sequence[int],
        poisoned_ids: Sequence[int] = (),
    ) -> float:
        """One real federated round.

        ``poisoned_ids`` is accepted for interface parity with the
        surrogate and ignored: in real training, corruption is physical —
        a wrapped node (:class:`repro.faults.FaultyEdgeNode`) hands the
        server a corrupted state dict, and the session's validation
        pipeline (or lack of it) decides the consequence.
        """
        return self.session.run_round(participant_ids).accuracy

    @property
    def last_round(self):
        """The most recent :class:`~repro.fl.session.RoundResult` (or None)."""
        return self.session.history[-1] if self.session.history else None


def build_learning_process(
    task_name: str,
    data_weights: Sequence[float],
    rng: RNGLike = None,
    curve: Optional[SurrogateCurve] = None,
) -> SurrogateAccuracy:
    """Build a surrogate process for a registered task name."""
    if curve is None:
        try:
            curve = SURROGATE_CURVES[task_name]
        except KeyError:
            raise ValueError(
                f"no surrogate curve for task {task_name!r}; "
                f"available: {sorted(SURROGATE_CURVES)}"
            ) from None
    return SurrogateAccuracy(curve, data_weights, rng=rng)
