"""Unified population engine: node fleets behind one ``Population`` API.

See ``docs/population.md`` for the API contract, the SoA column layout
and the cluster/tier model.
"""

from repro.population.api import (
    COLUMNS,
    NodeResponseBatch,
    Population,
    PopulationBase,
    as_population,
    columns_from_profiles,
)
from repro.population.clusters import (
    CLUSTER_KEYS,
    SUMMARY_FEATURES,
    ClusterView,
    cluster_population,
)
from repro.population.object_backend import ObjectPopulation
from repro.population.soa import SoAPopulation

__all__ = [
    "COLUMNS",
    "CLUSTER_KEYS",
    "SUMMARY_FEATURES",
    "ClusterView",
    "NodeResponseBatch",
    "ObjectPopulation",
    "Population",
    "PopulationBase",
    "SoAPopulation",
    "as_population",
    "cluster_population",
    "columns_from_profiles",
]
