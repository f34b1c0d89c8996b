"""Structure-of-arrays node engine: the whole fleet as numpy columns.

Per-node hardware (CPU frequency bounds, energy coefficients, bandwidth
as upload time, workload bits and reserve utilities) lives in parallel
float64 columns, and the best-response ζ* plus the Eqn 6-12 round
quantities (energy, timing, utility, payment) are computed for the whole
fleet at once as column math.  One ``respond`` call replaces N scalar
:func:`repro.economics.pricing.node_response` calls, which is what lets
the environment step populations of tens of thousands of nodes
(see docs/population.md; ``tests/population/test_throughput.py`` holds
the speedup floor).

Bit-exactness contract
----------------------

Every vectorized expression here replicates the scalar reference
operation-for-operation in the same left-to-right association:

* ``κ = 2.0·σ·α·c·d`` and the energy coefficient ``σ·α·c·d`` are built in
  the exact factor order of ``node_response`` / ``HardwareProfile.kappa``;
* clipping ``p/κ`` to ``[ζ_min, ζ_max]`` via ``np.clip`` selects the same
  IEEE-754 values as the scalar two-branch clip;
* ``np.sqrt`` and ``math.sqrt`` are both correctly rounded.

IEEE-754 elementwise operations are deterministic, so the SoA backend is
*bit-identical* to the object backend per node — the differential matrix
(``python -m repro.testing diff``) proves it on every run of the
``population_n5`` scenario.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.population.api import (
    NodeResponseBatch,
    PopulationBase,
    columns_from_profiles,
)
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.economics.hardware import HardwareProfile, HardwareSpec


class SoAPopulation(PopulationBase):
    """Structure-of-arrays :class:`~repro.population.api.Population` backend."""

    backend = "soa"

    def __init__(self, columns: Dict[str, np.ndarray], spec=None):
        self._columns = dict(columns)
        self._spec = spec
        # Derived per-σ coefficient columns, built lazily on the first
        # respond() at each σ (σ is fixed per environment, so in practice
        # this caches exactly one entry).
        self._coef_cache: Dict[int, Tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_profiles(
        cls, profiles: Sequence["HardwareProfile"], spec=None
    ) -> "SoAPopulation":
        """Columns from an existing profile list (exact float round-trip)."""
        return cls(columns_from_profiles(profiles), spec=spec)

    @classmethod
    def sample(
        cls,
        n_nodes: int,
        spec: Optional["HardwareSpec"] = None,
        rng=None,
        bits_per_epoch: Optional[np.ndarray] = None,
    ) -> "SoAPopulation":
        """Draw a fleet directly into columns.

        Consumes the random stream in the exact draw order of
        :func:`repro.economics.hardware.sample_profiles` (``zeta_max``
        first, then ``comm_time``), so sampling into columns or into
        objects from the same generator state yields the same fleet.
        """
        from repro.economics.hardware import HardwareSpec
        from repro.utils.rng import as_generator

        check_positive("n_nodes", n_nodes)
        spec = spec or HardwareSpec()
        gen = as_generator(rng)
        if bits_per_epoch is not None:
            bits = np.asarray(bits_per_epoch, dtype=float)
            if bits.shape != (n_nodes,):
                raise ValueError(
                    f"bits_per_epoch must have shape ({n_nodes},), "
                    f"got {bits.shape}"
                )
        else:
            bits = np.full(n_nodes, spec.default_bits_per_epoch)
        zeta_max = gen.uniform(spec.zeta_max_low, spec.zeta_max_high, size=n_nodes)
        comm_time = gen.uniform(
            spec.comm_time_low, spec.comm_time_high, size=n_nodes
        )
        columns = {
            "node_id": np.arange(n_nodes, dtype=np.int64),
            "cycles_per_bit": np.full(n_nodes, spec.cycles_per_bit),
            "bits_per_epoch": bits,
            "capacitance": np.full(n_nodes, spec.capacitance),
            "zeta_min": spec.zeta_min_fraction * zeta_max,
            "zeta_max": zeta_max,
            "comm_time": comm_time,
            "comm_power": np.full(n_nodes, spec.comm_power),
            "reserve_utility": np.full(n_nodes, spec.reserve_utility),
        }
        for arr in columns.values():
            arr.setflags(write=False)
        return cls(columns, spec=spec)

    # ------------------------------------------------------------------ #
    # the vectorized best response (Eqns 6-11)
    # ------------------------------------------------------------------ #
    def _coefficients(self, local_epochs: int) -> Tuple[np.ndarray, ...]:
        """(work, kappa, e_coef, e_com) columns for ``σ = local_epochs``."""
        cached = self._coef_cache.get(local_epochs)
        if cached is None:
            check_positive("local_epochs", local_epochs)
            c = self._columns
            # Factor orders mirror node_response exactly:
            #   work   = σ c d
            #   kappa  = 2.0 σ α c d
            #   e_coef = σ α c d          (energy = e_coef·ζ² + e_com)
            work = local_epochs * c["cycles_per_bit"] * c["bits_per_epoch"]
            kappa = (
                2.0
                * local_epochs
                * c["capacitance"]
                * c["cycles_per_bit"]
                * c["bits_per_epoch"]
            )
            e_coef = (
                local_epochs
                * c["capacitance"]
                * c["cycles_per_bit"]
                * c["bits_per_epoch"]
            )
            e_com = c["comm_power"] * c["comm_time"]
            cached = (work, kappa, e_coef, e_com)
            self._coef_cache[local_epochs] = cached
        return cached

    def respond(
        self, prices, local_epochs: int, validate: bool = True
    ) -> NodeResponseBatch:
        """Whole-fleet best response to a posted price vector.

        Column-for-column bit-identical to looping ``node_response``:
        ``p = 0`` needs no special case because ``0/κ = 0 < ζ_min`` clips
        to ``ζ_min``, exactly the scalar zero-price branch.

        ``validate=False`` skips the price-vector re-check for callers
        that already validated (the env hot path).
        """
        if validate:
            prices = self.validate_prices(prices)
        else:
            prices = np.asarray(prices, dtype=np.float64)
        work, kappa, e_coef, e_com = self._coefficients(local_epochs)
        c = self._columns
        zeta = (prices / kappa).clip(c["zeta_min"], c["zeta_max"])
        # ζ² via multiply (bit-identical to ``zeta**2``, cheaper dispatch);
        # the gross revenue pζ is shared between utility and payment.
        energy = e_coef * (zeta * zeta) + e_com
        gross = prices * zeta
        utility = gross - energy
        participates = utility >= c["reserve_utility"]
        if participates.all():
            # Whole fleet participates (the common benign-pricing case):
            # each mask select is the identity, so skip the np.where pass.
            return NodeResponseBatch(
                participates=participates,
                zeta=zeta,
                utility=utility,
                payment=gross,
                time=work / zeta + c["comm_time"],
                energy=energy,
            )
        # Decliner semantics of NodeResponse: ζ pinned at ζ_min, zero
        # utility/payment/energy, infinitely slow.
        return NodeResponseBatch(
            participates=participates,
            zeta=np.where(participates, zeta, c["zeta_min"]),
            utility=np.where(participates, utility, 0.0),
            payment=np.where(participates, gross, 0.0),
            time=np.where(participates, work / zeta + c["comm_time"], np.inf),
            energy=np.where(participates, energy, 0.0),
        )

    # ------------------------------------------------------------------ #
    # replication
    # ------------------------------------------------------------------ #
    def spawn(self, seed: int) -> "SoAPopulation":
        """Independently drawn fleet of the same shape (needs a spec)."""
        if self._spec is None:
            raise TypeError(
                "this SoAPopulation was built from explicit columns/profiles "
                "and carries no HardwareSpec; build it via SoAPopulation."
                "sample(...) to make spawn() available"
            )
        return type(self).sample(
            self.n_nodes,
            spec=self._spec,
            rng=np.random.default_rng(int(seed)),
            bits_per_epoch=self._columns["bits_per_epoch"].copy(),
        )
