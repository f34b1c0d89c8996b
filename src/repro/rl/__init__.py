"""Deep reinforcement learning substrate: PPO actor-critic on numpy autograd.

Provides the pieces Algorithm 1 assumes: Gaussian policies for continuous
actions, value networks, generalized advantage estimation over episode
buffers, and the PPO-clip update with the paper's learning-rate decay
schedule (×0.95 every 20 episodes).
"""

from repro.rl.spaces import Box
from repro.rl.running_stat import RunningMeanStd
from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import GaussianPolicy, ValueNetwork
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.rl.checkpoint import load_many, load_ppo, save_many, save_ppo
from repro.rl.a2c import A2CAgent

__all__ = [
    "Box",
    "RunningMeanStd",
    "RolloutBuffer",
    "GaussianPolicy",
    "ValueNetwork",
    "PPOAgent",
    "PPOConfig",
    "save_ppo",
    "load_ppo",
    "save_many",
    "load_many",
    "A2CAgent",
]
