"""One federated training session: server + nodes, driven round by round.

Beyond the paper's happy path (every participant delivers), the session
implements a failure-handling delivery pipeline:

* an optional **round deadline** — updates whose reported delivery time
  exceeds it are discarded (stragglers);
* **update validation** — incoming states must be finite and match the
  broadcast keys/shapes, otherwise the sender is quarantined via the
  optional reliability tracker;
* **graceful degradation** — the surviving subset is aggregated; a round
  in which nobody delivers leaves the global model untouched instead of
  raising.

Nodes signal a crash by returning ``None`` from ``local_update`` and
report delivery timing through a ``last_delivery_time`` attribute (see
:class:`repro.faults.FaultyEdgeNode`); plain :class:`EdgeNode` instances
have neither and always count as on-time deliverers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.datasets.base import ArrayDataset
from repro.fl.aggregation import validate_update
from repro.fl.metrics import EvalResult
from repro.fl.node import EdgeNode
from repro.fl.server import ParameterServer
from repro.nn.module import Module


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one federated round.

    ``participant_ids`` are the nodes asked to train; ``delivered_ids``
    the subset whose updates were actually aggregated.  The remaining
    lists classify the failures: crashed (no update), late (missed the
    deadline), invalid (failed validation), quarantined (excluded before
    training by the reliability tracker).
    """

    round_index: int
    participant_ids: List[int]
    accuracy: float
    loss: float
    delivered_ids: List[int] = field(default_factory=list)
    crashed_ids: List[int] = field(default_factory=list)
    late_ids: List[int] = field(default_factory=list)
    invalid_ids: List[int] = field(default_factory=list)
    quarantined_ids: List[int] = field(default_factory=list)


class FederatedSession:
    """Round-driven federated learning over a fixed fleet of nodes.

    The incentive layer decides *who* participates each round (by pricing);
    this class runs the ML consequence: local updates on participants,
    FedAvg with their data weights, evaluation of the new global model.

    ``deadline`` (abstract delivery-time units, compared against each
    node's ``last_delivery_time``) enables straggler dropping;
    ``validate_updates`` enables the corrupt-update filter;
    ``reliability`` (a :class:`repro.faults.ReliabilityTracker` or
    anything with its ``quarantined``/``update_round`` surface) enables
    quarantine of repeat offenders; ``injector`` (anything with
    ``begin_round``) is told the round index before nodes train.
    """

    def __init__(
        self,
        server: ParameterServer,
        nodes: Sequence[EdgeNode],
        deadline: Optional[float] = None,
        validate_updates: bool = True,
        reliability=None,
        injector=None,
    ):
        if not nodes:
            raise ValueError("a session needs at least one edge node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids: {sorted(ids)}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.server = server
        self._nodes = {n.node_id: n for n in nodes}
        self.deadline = deadline
        self.validate_updates = bool(validate_updates)
        self.reliability = reliability
        self.injector = injector
        self._worker: Module = server.make_worker_model()
        self.history: List[RoundResult] = []

    # ------------------------------------------------------------------ #
    # fleet surface
    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> EdgeNode:
        """One registered node by id (raises ``KeyError`` when unknown)."""
        return self._nodes[node_id]

    def data_sizes(self) -> np.ndarray:
        """Per-node sample counts ``D_i``, aligned with :attr:`node_ids`."""
        return np.array(
            [self._nodes[i].data_size for i in self.node_ids], dtype=np.int64
        )

    def replace_nodes(self, nodes: Sequence[EdgeNode]) -> None:
        """Swap the fleet for equivalently-identified nodes (e.g. fault
        wrappers).  The replacement must cover exactly the current ids."""
        replacement = {n.node_id: n for n in nodes}
        if set(replacement) != set(self._nodes):
            raise ValueError(
                f"replacement ids {sorted(replacement)} do not match the "
                f"session's ids {self.node_ids}"
            )
        self._nodes = replacement

    def run_round(self, participant_ids: Optional[Sequence[int]] = None) -> RoundResult:
        """Execute one round with the given participants (default: all).

        Raises ``ValueError`` when no participants are given — the caller
        (the incentive environment) is responsible for ending an episode
        when pricing attracts nobody.  Mid-round failures do *not* raise:
        the surviving updates are aggregated, and a round with no
        survivors leaves the global model unchanged.
        """
        if participant_ids is None:
            participant_ids = self.node_ids
        participant_ids = sorted(set(participant_ids))
        if not participant_ids:
            raise ValueError("run_round needs at least one participant")
        unknown = [i for i in participant_ids if i not in self._nodes]
        if unknown:
            raise KeyError(f"unknown node ids: {unknown}")

        round_index = self.server.round_index
        if self.injector is not None:
            self.injector.begin_round(round_index)

        quarantined: List[int] = []
        if self.reliability is not None:
            quarantined = [
                i
                for i in participant_ids
                if self.reliability.is_quarantined(i, round_index)
            ]
            participant_ids = [i for i in participant_ids if i not in quarantined]

        global_state = self.server.broadcast()
        states: List[dict] = []
        weights: List[float] = []
        delivered: List[int] = []
        crashed: List[int] = []
        late: List[int] = []
        invalid: List[int] = []
        for node_id in participant_ids:
            node = self._nodes[node_id]
            state = node.local_update(self._worker, global_state)
            if state is None:
                crashed.append(node_id)
                continue
            delivery_time = getattr(node, "last_delivery_time", None)
            if (
                self.deadline is not None
                and delivery_time is not None
                and delivery_time > self.deadline
            ):
                late.append(node_id)
                continue
            if self.validate_updates:
                reason = validate_update(state, reference=global_state)
                if reason is not None:
                    invalid.append(node_id)
                    continue
            states.append(state)
            weights.append(node.data_size)
            delivered.append(node_id)

        if states:
            self.server.aggregate(states, weights)
        if self.reliability is not None:
            self.reliability.update_round(
                round_index,
                delivered=delivered,
                failed=crashed + late + invalid,
                offenders=invalid,
            )
        result = self.server.evaluate()
        record = RoundResult(
            round_index=self.server.round_index,
            participant_ids=list(participant_ids),
            accuracy=result.accuracy,
            loss=result.loss,
            delivered_ids=delivered,
            crashed_ids=crashed,
            late_ids=late,
            invalid_ids=invalid,
            quarantined_ids=quarantined,
        )
        self.history.append(record)
        return record

    def run(self, n_rounds: int) -> List[RoundResult]:
        """Run ``n_rounds`` full-participation rounds (plain FedAvg)."""
        return [self.run_round() for _ in range(n_rounds)]

    def reset(self) -> None:
        """Reset the global model and history (new episode)."""
        self.server.reset()
        self.history.clear()
        if self.reliability is not None:
            self.reliability.reset()
