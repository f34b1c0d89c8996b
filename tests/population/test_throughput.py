"""SoA respond throughput gate: identity, speedup floor, sublinear scaling.

Times :meth:`Population.respond` on both backends over one fleet per
size (N=5, 100, 2000; 20 rounds of prices spanning decline, interior and
ζ_max-saturated responses).  At every size the backends must agree
within 1e-12; at N=2000 the SoA columns must beat the per-node object
loop at least 5x; and SoA time must grow by less than the 400x size
ratio, since its per-call overhead amortizes across the columns.
"""

import time

import numpy as np
import pytest

from repro.economics.hardware import HardwareSpec
from repro.population import ObjectPopulation, SoAPopulation

pytestmark = pytest.mark.population

SIZES = (5, 100, 2_000)
ROUNDS = 20
LOCAL_EPOCHS = 5
IDENTITY_ATOL = 1e-12
MIN_SPEEDUP = 5.0


def _price_schedule(pop, seed=1):
    """``(ROUNDS, N)`` prices from 40% of each floor to 120% of each cap."""
    rng = np.random.default_rng(seed)
    lo = 0.4 * pop.price_floors(LOCAL_EPOCHS)
    hi = 1.2 * pop.price_caps(LOCAL_EPOCHS)
    return rng.uniform(lo, hi, size=(ROUNDS, pop.n_nodes))


def _seconds(pop, schedule, repeats=1):
    """Fastest of ``repeats`` timed passes over ``schedule``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for prices in schedule:
            pop.respond(prices, LOCAL_EPOCHS)
        best = min(best, time.perf_counter() - start)
    return best


def _identity_gap(pop_obj, pop_soa, schedule):
    """Max absolute element-wise deviation between the two backends."""
    worst = 0.0
    for prices in schedule:
        a = pop_obj.respond(prices, LOCAL_EPOCHS)
        b = pop_soa.respond(prices, LOCAL_EPOCHS)
        if not np.array_equal(a.participates, b.participates):
            return float("inf")
        for field in ("zeta", "utility", "payment", "energy"):
            gap = np.abs(getattr(a, field) - getattr(b, field)).max()
            worst = max(worst, float(gap))
        # time is inf for decliners: compare participants only.
        mask = a.participates
        if mask.any():
            worst = max(worst, float(np.abs(a.time[mask] - b.time[mask]).max()))
    return worst


@pytest.fixture(scope="module")
def measured():
    """Per size: the backend identity gap and each backend's seconds."""
    spec = HardwareSpec()
    out = {}
    for n in SIZES:
        # Same generator state: both backends describe the same fleet.
        pop_soa = SoAPopulation.sample(n, spec=spec, rng=np.random.default_rng(n))
        pop_obj = ObjectPopulation.sample(n, spec=spec, rng=np.random.default_rng(n))
        schedule = _price_schedule(pop_soa)
        # The identity pass doubles as both backends' warm-up.
        gap = _identity_gap(pop_obj, pop_soa, schedule)
        # Host stalls only ever add time, so the fastest pass is the cost.
        soa = _seconds(pop_soa, schedule, repeats=3)
        obj = _seconds(pop_obj, schedule)
        out[n] = {"gap": gap, "soa_s": soa, "object_s": obj}
    return out


def test_backends_agree_at_every_size(measured):
    for n, entry in measured.items():
        assert entry["gap"] <= IDENTITY_ATOL, (n, entry["gap"])


def test_soa_beats_object_loop_at_largest_size(measured):
    entry = measured[SIZES[-1]]
    speedup = entry["object_s"] / entry["soa_s"]
    assert speedup >= MIN_SPEEDUP, (
        f"SoA only {speedup:.1f}x faster than the object loop at "
        f"N={SIZES[-1]} (floor {MIN_SPEEDUP:.0f}x)"
    )


def test_soa_time_grows_sublinearly(measured):
    size_ratio = SIZES[-1] / SIZES[0]
    time_ratio = measured[SIZES[-1]]["soa_s"] / measured[SIZES[0]]["soa_s"]
    assert time_ratio < size_ratio, (
        f"SoA time grew {time_ratio:.1f}x over a {size_ratio:.0f}x size range"
    )
