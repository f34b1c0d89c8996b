"""Chiron reproduction: incentive-driven long-term optimization for edge
learning by hierarchical reinforcement mechanism (ICDCS 2021).

Public API tour
---------------
* ``repro.core`` — :func:`~repro.core.builder.build_environment`,
  :class:`~repro.core.env.EdgeLearningEnv`,
  :class:`~repro.core.chiron.ChironAgent` (the paper's contribution).
* ``repro.baselines`` — the paper's comparison mechanisms.
* ``repro.experiments`` — figure/table runners and the ``chiron-repro`` CLI.
* Substrates: ``repro.autograd`` (numpy autodiff), ``repro.nn`` (layers,
  optimizers, the paper's CNNs), ``repro.datasets`` (synthetic tasks,
  federated partitioners), ``repro.fl`` (federated simulator),
  ``repro.economics`` (the §III system model), ``repro.rl`` (PPO),
  ``repro.faults`` (mid-round fault injection, reliability tracking).

Quickstart::

    from repro.core import build_environment, ChironAgent
    from repro.experiments import train_mechanism

    build = build_environment(task_name="mnist", n_nodes=5, budget=60.0)
    agent = ChironAgent(build.env)
    history = train_mechanism(build.env, agent, episodes=100)
    print(history.smoothed_rewards()[-1])
"""

__version__ = "2.0.0"

__all__ = ["__version__"]
