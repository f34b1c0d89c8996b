"""Environment ↔ Population integration: backends and spawn."""

import numpy as np
import pytest

from repro.core.builder import BuildConfig, build_environment
from repro.population import ObjectPopulation, Population, SoAPopulation

pytestmark = pytest.mark.population


def _build(backend="soa", **overrides):
    config = BuildConfig(
        n_nodes=4, budget=15.0, seed=123, population_backend=backend, **overrides
    )
    return config.build().env


class TestBackendSelection:
    def test_default_is_soa(self):
        env = _build()
        assert isinstance(env.population, SoAPopulation)

    def test_object_backend_selectable(self):
        env = _build(backend="object")
        assert isinstance(env.population, ObjectPopulation)

    def test_population_satisfies_protocol(self):
        assert isinstance(_build().population, Population)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown population backend"):
            _build(backend="quantum")

    def test_builder_keyword_api(self):
        env = build_environment(
            n_nodes=3, budget=10.0, population_backend="object"
        ).env
        assert isinstance(env.population, ObjectPopulation)

    def test_backend_round_trips_through_config_dict(self):
        config = BuildConfig(n_nodes=3, population_backend="object")
        rebuilt = BuildConfig.from_dict(config.to_dict())
        assert rebuilt.population_backend == "object"
        assert rebuilt == config


class TestSpawnKeepsBackend:
    @pytest.mark.parametrize("backend", ["soa", "object"])
    def test_spawned_env_keeps_backend(self, backend):
        env = _build(backend=backend)
        child = env.spawn(seed=5)
        assert type(child.population) is type(env.population)
        assert child.population.n_nodes == env.population.n_nodes

    def test_spawned_env_shares_immutable_fleet(self):
        # Replicas decorrelate the stochastic streams, not the hardware:
        # the (immutable) population object is shared, coefficient caches
        # and all.
        env = _build()
        child = env.spawn(seed=5)
        assert child.population is env.population
