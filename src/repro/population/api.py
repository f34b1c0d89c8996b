"""The ``Population`` protocol: one API over every node-engine backend.

The reproduction started with N=5 :class:`~repro.fl.node.EdgeNode`-style
Python objects stepped one at a time.  That representation caps every
layer that touches nodes (the incentive environment, the federated
session, the market analysis tools) at Python-loop throughput and couples
them to the object layout.  This package abstracts the *population* — the
fleet of self-interested nodes with private hardware — behind a small
protocol so the layers above program against columns and batches instead
of node objects:

* :class:`ObjectPopulation` (:mod:`repro.population.object_backend`) —
  the reference backend; per-node :func:`repro.economics.pricing.node_response`
  calls, exactly the pre-refactor arithmetic.
* :class:`SoAPopulation` (:mod:`repro.population.soa`) — a numpy
  structure-of-arrays backend where the best-response ζ* and Eqns 6-12
  are vectorized column math.  Bit-identical to the object backend (the
  differential matrix proves it) but steps tens of thousands of nodes
  per round.

Both backends share the column-math mixin here (:class:`PopulationBase`),
so fleet-level scales (price caps/floors, the characteristic round time)
are computed by *one* code path regardless of backend — backend identity
of the environment is by construction, not by luck.

The batch contract
------------------

``respond(prices, local_epochs)`` returns a :class:`NodeResponseBatch`,
the column form of :class:`repro.economics.pricing.NodeResponse`: per-node
``participates`` / ``zeta`` / ``utility`` / ``payment`` / ``time`` /
``energy`` arrays with identical decline semantics (a declining node
reports ``zeta_min``, zero utility/payment/energy and infinite time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.economics.hardware import HardwareProfile
    from repro.population.clusters import ClusterView

#: Names of the per-node hardware columns every backend exposes through
#: :meth:`PopulationBase.column`.  These mirror the fields of
#: :class:`repro.economics.hardware.HardwareProfile`.
COLUMNS = (
    "node_id",
    "cycles_per_bit",
    "bits_per_epoch",
    "capacitance",
    "zeta_min",
    "zeta_max",
    "comm_time",
    "comm_power",
    "reserve_utility",
)

@dataclass(frozen=True)
class NodeResponseBatch:
    """A whole fleet's reaction to a posted price vector (column form).

    Semantics per node match :class:`repro.economics.pricing.NodeResponse`
    exactly: where ``participates`` is False the node contributes nothing
    (``zeta`` pinned at ``zeta_min``, zero utility/payment/energy,
    infinite time).
    """

    participates: np.ndarray  # (n,) bool
    zeta: np.ndarray  # (n,) chosen CPU frequency (Hz); zeta_min declining
    utility: np.ndarray  # (n,) utility at the chosen frequency; 0 declining
    payment: np.ndarray  # (n,) p·ζ owed on participation; 0 declining
    time: np.ndarray  # (n,) total round time T_i; inf declining
    energy: np.ndarray  # (n,) energy spent; 0 declining

    @property
    def n_nodes(self) -> int:
        return int(self.participates.shape[0])

    def participant_ids(self) -> List[int]:
        """Sorted ids of the participating nodes."""
        return [int(i) for i in np.flatnonzero(self.participates)]

    def total_payment(self, mask: Optional[np.ndarray] = None) -> float:
        """Σ payments over participants (optionally ∧ ``mask``)."""
        active = self.participates if mask is None else (self.participates & mask)
        return float(np.where(active, self.payment, 0.0).sum())


@runtime_checkable
class Population(Protocol):
    """What every node-engine backend guarantees.

    The environment, the federated session, market analysis and the fault
    pipeline program against this surface; whether nodes live as Python
    objects or as structure-of-arrays columns is a backend detail.
    """

    @property
    def n_nodes(self) -> int:
        """Fleet size N."""

    def respond(
        self, prices: np.ndarray, local_epochs: int, validate: bool = True
    ) -> NodeResponseBatch:
        """Best response of the whole fleet to a posted price vector.

        ``validate=False`` lets a caller that already validated the
        vector (shape, finiteness, non-negativity) skip the re-check.
        """

    def column(self, name: str) -> np.ndarray:
        """A read-only per-node hardware column (see :data:`COLUMNS`)."""

    def profiles(self) -> List["HardwareProfile"]:
        """Materialized per-node profiles (legacy object interop)."""

    def profile(self, index: int) -> "HardwareProfile":
        """One node's materialized profile."""

    def spawn(self, seed: int) -> "Population":
        """An independently drawn population of the same shape."""

    def cluster_view(self, n_clusters: int, by: str = "price_cap") -> "ClusterView":
        """A fixed-size clustered/tiered view of this population."""


class PopulationBase:
    """Shared column math for both backends (Eqns 6-12 fleet scales).

    Subclasses populate ``self._columns`` (a dict of float64 arrays keyed
    by :data:`COLUMNS`) and inherit every derived quantity from it, so
    the object and SoA backends compute fleet-level scales through the
    *same* floating-point expressions.

    Operation order in every expression below deliberately replicates the
    scalar helpers (:func:`repro.economics.pricing.node_response`,
    :func:`~repro.economics.pricing.min_participation_price`) term for
    term — left-to-right association — so results are bit-identical to
    the per-object loops they replace.
    """

    _columns: dict

    # ---- column surface ---------------------------------------------- #
    @property
    def n_nodes(self) -> int:
        return int(self._columns["zeta_max"].shape[0])

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"unknown population column {name!r}; available: {COLUMNS}"
            ) from None

    @property
    def zeta_min(self) -> np.ndarray:
        return self._columns["zeta_min"]

    @property
    def zeta_max(self) -> np.ndarray:
        return self._columns["zeta_max"]

    @property
    def comm_time(self) -> np.ndarray:
        return self._columns["comm_time"]

    @property
    def comm_power(self) -> np.ndarray:
        return self._columns["comm_power"]

    @property
    def reserve_utility(self) -> np.ndarray:
        return self._columns["reserve_utility"]

    @property
    def bits_per_epoch(self) -> np.ndarray:
        return self._columns["bits_per_epoch"]

    @property
    def cycles_per_bit(self) -> np.ndarray:
        return self._columns["cycles_per_bit"]

    @property
    def capacitance(self) -> np.ndarray:
        return self._columns["capacitance"]

    @property
    def node_ids(self) -> np.ndarray:
        return self._columns["node_id"]

    # ---- derived fleet scales (Eqns 6-12, vectorized) ----------------- #
    def kappa(self, local_epochs: int) -> np.ndarray:
        """``κ_i = 2 σ α_i c_i d_i`` per node."""
        check_positive("local_epochs", local_epochs)
        c = self._columns
        return (
            2.0
            * local_epochs
            * c["capacitance"]
            * c["cycles_per_bit"]
            * c["bits_per_epoch"]
        )

    def work(self, local_epochs: int) -> np.ndarray:
        """Per-node CPU cycles per round ``σ c_i d_i`` (Eqn 6 numerator)."""
        check_positive("local_epochs", local_epochs)
        c = self._columns
        return local_epochs * c["cycles_per_bit"] * c["bits_per_epoch"]

    def communication_energy(self) -> np.ndarray:
        """``E_com = ε_i T_com`` per node."""
        return self._columns["comm_power"] * self._columns["comm_time"]

    def price_caps(self, local_epochs: int) -> np.ndarray:
        """Per-node saturation price ``κ_i ζ_max`` (ζ* pins at ζ_max above)."""
        return self.kappa(local_epochs) * self._columns["zeta_max"]

    def price_floors(self, local_epochs: int) -> np.ndarray:
        """Whole-fleet :func:`repro.economics.pricing.min_participation_price`."""
        c = self._columns
        kappa = self.kappa(local_epochs)
        e_com = self.communication_energy()
        mu = c["reserve_utility"]
        interior = np.sqrt(2.0 * kappa * (mu + e_com))
        below = (mu + e_com + 0.5 * kappa * c["zeta_min"] ** 2) / c["zeta_min"]
        above = (mu + e_com + 0.5 * kappa * c["zeta_max"] ** 2) / c["zeta_max"]
        lo = kappa * c["zeta_min"]
        hi = kappa * c["zeta_max"]
        in_range = (lo <= interior) & (interior <= hi)
        return np.where(in_range, interior, np.where(interior < lo, below, above))

    def characteristic_time(self, local_epochs: int) -> float:
        """Mean comm time + mean flat-out computation time (env time scale)."""
        c = self._columns
        flat_out = (
            local_epochs * c["cycles_per_bit"] * c["bits_per_epoch"] / c["zeta_max"]
        )
        return float(np.mean(c["comm_time"]) + np.mean(flat_out))

    # ---- materialization / views -------------------------------------- #
    def profiles(self) -> List["HardwareProfile"]:
        """Materialized :class:`HardwareProfile` list (legacy interop).

        Column values round-trip exactly (float64 in, float64 out), so a
        materialized profile behaves bit-identically to one the fleet was
        built from.  The list is cached; treat it as read-only.
        """
        cached = getattr(self, "_materialized", None)
        if cached is None:
            from repro.economics.hardware import HardwareProfile

            c = self._columns
            cached = [
                HardwareProfile(
                    node_id=int(c["node_id"][i]),
                    cycles_per_bit=float(c["cycles_per_bit"][i]),
                    bits_per_epoch=float(c["bits_per_epoch"][i]),
                    capacitance=float(c["capacitance"][i]),
                    zeta_min=float(c["zeta_min"][i]),
                    zeta_max=float(c["zeta_max"][i]),
                    comm_time=float(c["comm_time"][i]),
                    comm_power=float(c["comm_power"][i]),
                    reserve_utility=float(c["reserve_utility"][i]),
                )
                for i in range(self.n_nodes)
            ]
            self._materialized = cached
        return list(cached)

    def profile(self, index: int) -> "HardwareProfile":
        return self.profiles()[index]

    def cluster_view(self, n_clusters: int, by: str = "price_cap") -> "ClusterView":
        from repro.population.clusters import cluster_population

        return cluster_population(self, n_clusters, by=by)

    # ---- misc --------------------------------------------------------- #
    def validate_prices(self, prices) -> np.ndarray:
        """Coerce/validate a posted price vector against this fleet."""
        prices = np.asarray(prices, dtype=np.float64)
        if prices.shape != (self.n_nodes,):
            raise ValueError(
                f"prices must have shape ({self.n_nodes},), got {prices.shape}"
            )
        if not np.all(np.isfinite(prices)) or (prices.size and prices.min() < 0.0):
            raise ValueError(f"prices must be finite and non-negative: {prices}")
        return prices

    def __len__(self) -> int:
        return self.n_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_nodes={self.n_nodes})"


def columns_from_profiles(profiles: Sequence["HardwareProfile"]) -> dict:
    """Column dict (see :data:`COLUMNS`) from a profile sequence."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("need at least one hardware profile")
    cols = {
        "node_id": np.array([p.node_id for p in profiles], dtype=np.int64),
        "cycles_per_bit": np.array([p.cycles_per_bit for p in profiles]),
        "bits_per_epoch": np.array([p.bits_per_epoch for p in profiles]),
        "capacitance": np.array([p.capacitance for p in profiles]),
        "zeta_min": np.array([p.zeta_min for p in profiles]),
        "zeta_max": np.array([p.zeta_max for p in profiles]),
        "comm_time": np.array([p.comm_time for p in profiles]),
        "comm_power": np.array([p.comm_power for p in profiles]),
        "reserve_utility": np.array([p.reserve_utility for p in profiles]),
    }
    for arr in cols.values():
        arr.setflags(write=False)
    return cols


def as_population(fleet, backend: str = "soa") -> Population:
    """Coerce profiles / nodes / an existing population to a ``Population``.

    ``backend`` selects the engine when coercion is needed: ``"soa"``
    (the vectorized default) or ``"object"`` (the per-node reference
    loop).  An existing :class:`Population` passes through unchanged.
    """
    from repro.population.object_backend import ObjectPopulation
    from repro.population.soa import SoAPopulation

    if isinstance(fleet, (ObjectPopulation, SoAPopulation)):
        return fleet
    if isinstance(fleet, Population):  # third-party backend
        return fleet
    if backend == "soa":
        return SoAPopulation.from_profiles(fleet)
    if backend == "object":
        return ObjectPopulation(fleet)
    raise ValueError(
        f"unknown population backend {backend!r}; expected 'soa' or 'object'"
    )
