"""The fused PPO minibatch step against the autograd reference, bit for bit.

``PPOAgent._update_minibatch`` runs the forward, the hand-written backward,
the gradient clip and Adam without building a graph.  Two deep copies of
one agent take the fused step and :func:`reference_step`; every gradient,
parameter, Adam moment and returned statistic must agree in every bit
(signed zeros included), over several consecutive steps.
"""

import copy

import numpy as np
import pytest

from repro.rl import PPOAgent, PPOConfig
from repro.rl.buffer import Batch

from tests.rl.ppo_reference import reference_step

HIDDEN = [(), (4,), (64, 64)]
DIMS = [(62, 1), (1, 5), (62, 5)]
ROWS = [1, 7, 32]
STEPS = 3


def assert_bits_equal(actual, expected, what):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def make_minibatch(agent, rows, rng, zero_advantages):
    """Rows whose probability ratios under ``agent`` straddle both clip edges."""
    obs = rng.normal(size=(rows, agent.policy.obs_dim))
    actions = rng.normal(size=(rows, agent.policy.act_dim))
    logp = agent.policy.log_prob(obs, actions).data
    # log-ratios in [-0.6, 0.6]: ratios from 0.55 to 1.82 against a 0.2 clip.
    log_ratio = rng.uniform(-0.6, 0.6, size=rows)
    advantages = (
        np.zeros(rows) if zero_advantages else rng.normal(size=rows)
    )
    return Batch(
        obs=obs,
        actions=actions,
        log_probs=logp - log_ratio,
        advantages=advantages,
        returns=rng.normal(size=rows) * 3.0,
    )


def assert_agents_equal(fused, reference, step):
    for net in ("policy", "value_net"):
        pairs = zip(
            getattr(fused, net).named_parameters(),
            getattr(reference, net).named_parameters(),
        )
        for (name, got), (_, want) in pairs:
            where = f"step {step}: {net}.{name}"
            assert got.grad is not None and want.grad is not None, where
            assert_bits_equal(got.grad, want.grad, where + " grad")
            assert_bits_equal(got.data, want.data, where)
    for opt in ("actor_opt", "critic_opt"):
        got = getattr(fused, opt).flat_state()
        want = getattr(reference, opt).flat_state()
        for key in got:
            assert_bits_equal(got[key], want[key], f"step {step}: {opt} {key}")


def run_pair(agent, rows, rng, zero_advantages=False, reference_fn=reference_step):
    """``agent._update_minibatch`` on one deep copy, ``reference_fn`` on another."""
    fused = copy.deepcopy(agent)
    reference = copy.deepcopy(agent)
    for step in range(STEPS):
        mb = make_minibatch(fused, rows, rng, zero_advantages)
        got = fused._update_minibatch(mb)
        want = reference_fn(reference, mb)
        assert sorted(got) == sorted(want)
        for key in want:
            assert_bits_equal(got[key], want[key], f"step {step}: {key}")
        assert_agents_equal(fused, reference, step)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"obs{d[0]}-act{d[1]}")
@pytest.mark.parametrize("hidden", HIDDEN, ids=lambda h: "h" + "x".join(map(str, h)))
class TestFusedUpdateMatchesAutograd:
    def make_agent(self, hidden, dims, seed, **overrides):
        config = PPOConfig(hidden=hidden, actor_lr=1e-2, critic_lr=1e-2, **overrides)
        return PPOAgent(*dims, config=config, rng=seed)

    def test_random_minibatches(self, hidden, dims, rows):
        agent = self.make_agent(hidden, dims, seed=rows)
        run_pair(agent, rows, np.random.default_rng(rows))

    def test_zero_advantages_tie_the_surrogates(self, hidden, dims, rows):
        agent = self.make_agent(hidden, dims, seed=100 + rows)
        run_pair(
            agent, rows, np.random.default_rng(100 + rows), zero_advantages=True
        )

    def test_log_std_outside_its_clamp(self, hidden, dims, rows):
        agent = self.make_agent(hidden, dims, seed=200 + rows)
        # Cycle below -5, above 2 and inside, so both band edges show.
        agent.policy.log_std.data[:] = np.resize([-5.5, 2.5, -0.5], dims[1])
        run_pair(agent, rows, np.random.default_rng(200 + rows))

    def test_unclipped_gradients(self, hidden, dims, rows):
        agent = self.make_agent(hidden, dims, seed=300 + rows, max_grad_norm=0.0)
        run_pair(agent, rows, np.random.default_rng(300 + rows))
