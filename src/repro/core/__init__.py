"""Chiron: the paper's contribution.

* :class:`~repro.core.env.EdgeLearningEnv` — the incentive MDP of §V: a
  priced federated-learning round per step, budget-bounded episodes.
* :class:`~repro.core.chiron.ChironAgent` — the two-layer hierarchical PPO
  (exterior total-price agent + inner allocation agent).
* :mod:`repro.core.mechanism` — the mechanism interface all pricing
  strategies (Chiron and the baselines) implement.
* :func:`~repro.core.builder.build_environment` — one-call construction of
  a fully wired environment from an :class:`ExperimentConfig`.
"""

from repro.core.env import EdgeLearningEnv, EnvConfig, StepResult
from repro.core.state import ExteriorStateEncoder
from repro.core.rewards import RewardConfig, exterior_reward, inner_reward
from repro.core.mechanism import IncentiveMechanism, Observation
from repro.core.chiron import ChironAgent, ChironConfig
from repro.core.builder import BuildConfig, BuildResult, build_environment
from repro.core.vector import VectorizedEdgeLearningEnv

__all__ = [
    "EdgeLearningEnv",
    "EnvConfig",
    "StepResult",
    "ExteriorStateEncoder",
    "RewardConfig",
    "exterior_reward",
    "inner_reward",
    "IncentiveMechanism",
    "Observation",
    "ChironAgent",
    "ChironConfig",
    "BuildConfig",
    "BuildResult",
    "build_environment",
    "VectorizedEdgeLearningEnv",
]
