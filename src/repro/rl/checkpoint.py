"""Export and import trained policies.

An archive holds what a trained PPO agent needs to act: its policy and
value parameters, the observation normalizer, the optimizer learning
rates and the episode counter.  A loaded agent's deterministic actions
equal the saved agent's bit for bit.  The archive holds no optimizer
moments, scheduler ticks, random-stream positions or pending rollout
rows, so training a loaded agent further does not continue the saved
run bit for bit.  Archives written with those keys still load; the
extra keys are ignored.

Checkpoints are plain ``.npz`` archives — no pickling, so they are
portable and safe to load.  ``save_ppo`` / ``load_ppo`` work on one
agent; hierarchical agents (e.g. Chiron) prefix each sub-agent's keys
and share a single archive through ``save_many`` / ``load_many``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.rl.ppo import PPOAgent

PathLike = Union[str, Path]


def ppo_state_dict(agent: PPOAgent, prefix: str = "") -> Dict[str, np.ndarray]:
    """Flatten an agent's learnable state into named arrays."""
    state: Dict[str, np.ndarray] = {
        f"{prefix}policy": agent.policy.flat_parameters(),
        f"{prefix}value": agent.value_net.flat_parameters(),
        f"{prefix}episodes_seen": np.array([agent.episodes_seen]),
        f"{prefix}actor_lr": np.array([agent.actor_opt.lr]),
        f"{prefix}critic_lr": np.array([agent.critic_opt.lr]),
    }
    if agent.obs_stat is not None:
        state[f"{prefix}obs_mean"] = agent.obs_stat.mean
        state[f"{prefix}obs_var"] = agent.obs_stat.var
        state[f"{prefix}obs_count"] = np.array([agent.obs_stat.count])
    return state


def load_ppo_state(
    agent: PPOAgent, state: Dict[str, np.ndarray], prefix: str = ""
) -> None:
    """Restore a state dict into an architecture-matching agent."""
    try:
        agent.policy.load_flat_parameters(state[f"{prefix}policy"])
        agent.value_net.load_flat_parameters(state[f"{prefix}value"])
    except KeyError as exc:
        raise KeyError(f"checkpoint missing key {exc} (prefix {prefix!r})") from None
    agent.episodes_seen = int(state[f"{prefix}episodes_seen"][0])
    agent.actor_opt.set_lr(float(state[f"{prefix}actor_lr"][0]))
    agent.critic_opt.set_lr(float(state[f"{prefix}critic_lr"][0]))
    if agent.obs_stat is not None:
        if f"{prefix}obs_mean" not in state:
            raise KeyError(
                "checkpoint lacks observation statistics but the agent "
                "normalizes observations"
            )
        agent.obs_stat.mean = np.asarray(state[f"{prefix}obs_mean"], dtype=float)
        agent.obs_stat.var = np.asarray(state[f"{prefix}obs_var"], dtype=float)
        agent.obs_stat.count = float(state[f"{prefix}obs_count"][0])


def _write(state: Dict[str, np.ndarray], path: PathLike) -> Path:
    """Write ``state`` as an ``.npz`` archive; returns the path written.

    :func:`numpy.savez` appends ``.npz`` to any name that does not end in
    it, ``run.v2`` included, so the returned path does the same.
    """
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_name(target.name + ".npz")
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez(target, **state)
    return target


def save_ppo(agent: PPOAgent, path: PathLike) -> Path:
    """Write one agent's checkpoint to ``path`` (``.npz`` appended if absent)."""
    return _write(ppo_state_dict(agent), path)


def load_ppo(agent: PPOAgent, path: PathLike) -> PPOAgent:
    """Load a checkpoint written by :func:`save_ppo` into ``agent``."""
    with np.load(Path(path)) as archive:
        load_ppo_state(agent, dict(archive))
    return agent


def save_many(agents: Dict[str, PPOAgent], path: PathLike) -> Path:
    """Write several named agents into one archive (keys prefixed)."""
    merged: Dict[str, np.ndarray] = {}
    for name, agent in agents.items():
        merged.update(ppo_state_dict(agent, prefix=f"{name}/"))
    return _write(merged, path)


def load_many(agents: Dict[str, PPOAgent], path: PathLike) -> None:
    """Inverse of :func:`save_many` for the same agent names."""
    with np.load(Path(path)) as archive:
        state = dict(archive)
    for name, agent in agents.items():
        load_ppo_state(agent, state, prefix=f"{name}/")
