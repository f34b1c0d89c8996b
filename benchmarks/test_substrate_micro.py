"""Substrate micro-benchmarks (classic pytest-benchmark timing).

Not paper artifacts — these track the throughput of the layers everything
else stands on: autograd convolution, a federated round of real CNN
training, one environment step, and one PPO update.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.core import build_environment
from repro.nn import CrossEntropyLoss, McMahanCNN, SGD
from repro.rl import PPOAgent, PPOConfig


def test_conv2d_forward_backward(benchmark):
    rng = np.random.default_rng(0)
    x_data = rng.normal(size=(10, 1, 28, 28))
    model = McMahanCNN(rng=1)
    loss_fn = CrossEntropyLoss()
    labels = rng.integers(0, 10, size=10)

    def step():
        model.zero_grad()
        loss = loss_fn(model(x_data), labels)
        loss.backward()
        return loss.item()

    benchmark(step)


def test_federated_local_update(benchmark):
    build = build_environment(
        task_name="mnist", n_nodes=2, budget=10.0, accuracy_mode="real",
        seed=0, samples_per_node=20, test_size=20,
    )
    session = build.session
    node = session.node(0)
    worker = session.server.make_worker_model()
    state = session.server.broadcast()

    benchmark(lambda: node.local_update(worker, state))


def test_env_step_throughput(benchmark):
    build = build_environment(
        task_name="mnist", n_nodes=100, budget=1e9, accuracy_mode="surrogate",
        seed=0, max_rounds=10**6,
    )
    env = build.env
    env.reset()
    prices = np.sqrt(env.price_floors * env.price_caps)

    def step():
        if env.done:
            env.reset()
        return env.step(prices)

    benchmark(step)


def test_ppo_update(benchmark):
    agent = PPOAgent(
        62, 1, config=PPOConfig(update_epochs=10, actor_lr=3e-4, critic_lr=1e-3), rng=0
    )
    rng = np.random.default_rng(1)

    def fill_and_update():
        for i in range(64):
            obs = rng.normal(size=62)
            a, lp, v = agent.act(obs)
            agent.store(obs, a, rng.normal(), v, lp, done=(i % 16 == 15))
        return agent.update()

    benchmark.pedantic(fill_and_update, rounds=3, iterations=1)
