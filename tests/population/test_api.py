"""Population protocol surface: coercion, columns, batches."""

import numpy as np
import pytest

from repro.economics import min_participation_price, sample_profiles
from repro.population import (
    COLUMNS,
    NodeResponseBatch,
    ObjectPopulation,
    Population,
    SoAPopulation,
    as_population,
    columns_from_profiles,
)

pytestmark = pytest.mark.population

SIGMA = 5


@pytest.fixture
def profiles():
    return sample_profiles(6, rng=np.random.default_rng(42))


@pytest.fixture(params=["soa", "object"])
def population(request, profiles):
    return as_population(profiles, backend=request.param)


class TestCoercion:
    def test_profiles_to_soa(self, profiles):
        pop = as_population(profiles, backend="soa")
        assert isinstance(pop, SoAPopulation)
        assert pop.n_nodes == len(profiles)

    def test_profiles_to_object(self, profiles):
        pop = as_population(profiles, backend="object")
        assert isinstance(pop, ObjectPopulation)
        assert pop.profiles()[0] is profiles[0]

    def test_existing_population_passes_through(self, profiles):
        pop = as_population(profiles, backend="object")
        # backend hint is ignored for an existing population
        assert as_population(pop, backend="soa") is pop

    def test_unknown_backend_rejected(self, profiles):
        with pytest.raises(ValueError, match="unknown population backend"):
            as_population(profiles, backend="gpu")

    def test_both_backends_satisfy_protocol(self, population):
        assert isinstance(population, Population)

    def test_len(self, population):
        assert len(population) == population.n_nodes


class TestColumns:
    def test_every_declared_column_exists(self, population, profiles):
        for name in COLUMNS:
            col = population.column(name)
            assert col.shape == (len(profiles),)

    def test_columns_round_trip_profiles_exactly(self, profiles):
        cols = columns_from_profiles(profiles)
        for i, p in enumerate(profiles):
            assert cols["zeta_max"][i] == p.zeta_max
            assert cols["comm_time"][i] == p.comm_time
            assert cols["reserve_utility"][i] == p.reserve_utility

    def test_columns_are_read_only(self, population):
        with pytest.raises(ValueError):
            population.column("zeta_max")[0] = 1.0

    def test_unknown_column_rejected(self, population):
        with pytest.raises(KeyError, match="unknown population column"):
            population.column("gpu_flops")

    def test_profile_materialization_round_trips(self, profiles):
        pop = as_population(profiles, backend="soa")
        for original, back in zip(profiles, pop.profiles()):
            assert back.zeta_min == original.zeta_min
            assert back.zeta_max == original.zeta_max
            assert back.bits_per_epoch == original.bits_per_epoch
            assert back.kappa(SIGMA) == original.kappa(SIGMA)
        assert pop.profile(2).node_id == profiles[2].node_id

    def test_empty_profile_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            columns_from_profiles([])


class TestFleetScales:
    def test_kappa_matches_scalar(self, population, profiles):
        kappa = population.kappa(SIGMA)
        for i, p in enumerate(profiles):
            assert kappa[i] == p.kappa(SIGMA)

    def test_price_floors_match_min_participation_price(
        self, population, profiles
    ):
        floors = population.price_floors(SIGMA)
        for i, p in enumerate(profiles):
            assert floors[i] == min_participation_price(p, SIGMA)

    def test_price_caps(self, population, profiles):
        caps = population.price_caps(SIGMA)
        for i, p in enumerate(profiles):
            assert caps[i] == p.kappa(SIGMA) * p.zeta_max

    def test_characteristic_time_positive(self, population):
        assert population.characteristic_time(SIGMA) > 0.0


class TestRespondValidation:
    def test_wrong_shape_rejected(self, population):
        with pytest.raises(ValueError, match="shape"):
            population.respond(np.ones(population.n_nodes + 1), SIGMA)

    def test_negative_price_rejected(self, population):
        prices = np.ones(population.n_nodes)
        prices[0] = -0.5
        with pytest.raises(ValueError, match="finite and non-negative"):
            population.respond(prices, SIGMA)

    def test_nan_price_rejected(self, population):
        prices = np.ones(population.n_nodes)
        prices[1] = np.nan
        with pytest.raises(ValueError, match="finite and non-negative"):
            population.respond(prices, SIGMA)


class TestBatchHelpers:
    def _batch(self):
        participates = np.array([True, False, True, True])
        return NodeResponseBatch(
            participates=participates,
            zeta=np.array([1.0, 0.5, 2.0, 1.5]),
            utility=np.array([0.3, 0.0, 0.4, 0.1]),
            payment=np.array([2.0, 0.0, 3.0, 1.0]),
            time=np.array([5.0, np.inf, 4.0, 6.0]),
            energy=np.array([1.7, 0.0, 2.6, 0.9]),
        )

    def test_n_nodes(self):
        assert self._batch().n_nodes == 4

    def test_participant_ids_sorted(self):
        assert self._batch().participant_ids() == [0, 2, 3]

    def test_total_payment(self):
        assert self._batch().total_payment() == pytest.approx(6.0)

    def test_total_payment_masked(self):
        mask = np.array([True, True, False, True])
        assert self._batch().total_payment(mask) == pytest.approx(3.0)


class TestSpawn:
    def test_sampled_population_spawns_same_shape(self):
        pop = SoAPopulation.sample(5, rng=np.random.default_rng(0))
        child = pop.spawn(seed=99)
        assert child.n_nodes == 5
        assert not np.array_equal(
            child.column("zeta_max"), pop.column("zeta_max")
        )

    def test_spawn_is_seed_deterministic(self):
        pop = ObjectPopulation.sample(4, rng=np.random.default_rng(0))
        a, b = pop.spawn(seed=7), pop.spawn(seed=7)
        assert np.array_equal(a.column("zeta_max"), b.column("zeta_max"))

    def test_profile_built_population_cannot_spawn(self, profiles):
        pop = as_population(profiles, backend="soa")
        with pytest.raises(TypeError, match="HardwareSpec"):
            pop.spawn(seed=1)
