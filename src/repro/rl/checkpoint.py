"""Save/restore trained agents.

A PPO agent's learnable state is its policy and value parameters, the
observation normalizer, optimizer learning rates and the episode counter —
plus, for *bitwise* training resumption, the Adam first/second moments and
step counts, the LR-scheduler tick counters, the exact positions of
the policy-sampling and minibatch-shuffle random streams (serialized as
JSON bytes, see :func:`repro.utils.rng.pack_generator_state`), and any
rollout transitions still pending in the buffer (``min_update_batch``
lets them straddle episode boundaries).  With all
of that restored, an agent loaded mid-training produces ``act`` samples
and ``update`` parameter deltas identical to the run that was never
interrupted (pinned by ``tests/rl/test_checkpoint.py``).

Checkpoints are plain ``.npz`` archives — no pickling, so they are
portable and safe to load.  Archives written before the full-fidelity
keys existed still load: the extra state simply stays at its fresh
initialization.

``save_ppo`` / ``load_ppo`` work on one agent; hierarchical agents (e.g.
Chiron) prefix each sub-agent's keys and share a single archive.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.rl.buffer import FIELDS as BUFFER_FIELDS
from repro.rl.ppo import PPOAgent
from repro.utils.rng import pack_generator_state, restore_generator_state

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
    for name, opt in (("actor", agent.actor_opt), ("critic", agent.critic_opt)):
        for key, value in opt.flat_state().items():
            state[f"{prefix}{name}_opt_{key}"] = value
    state[f"{prefix}actor_sched_ticks"] = np.array(
        [agent._actor_sched.ticks], dtype=np.int64
    )
    state[f"{prefix}critic_sched_ticks"] = np.array(
        [agent._critic_sched.ticks], dtype=np.int64
    )
    state[f"{prefix}policy_rng"] = pack_generator_state(agent.policy._sample_rng)
    state[f"{prefix}shuffle_rng"] = pack_generator_state(agent._shuffle_rng)
    # Pending rollout transitions: with ``min_update_batch`` set they
    # straddle episode boundaries, so a mid-training checkpoint that
    # dropped them would diverge from the uninterrupted run at the next
    # update (see tests/rl/test_checkpoint.py::TestBufferRoundTrip).
    for key, value in agent.buffer.columns().items():
        state[f"{prefix}buffer_{key}"] = value
    if agent.obs_stat is not None:
        state[f"{prefix}obs_mean"] = agent.obs_stat.mean
        state[f"{prefix}obs_var"] = agent.obs_stat.var
        state[f"{prefix}obs_count"] = np.array([agent.obs_stat.count])
    return state


def load_ppo_state(
    agent: PPOAgent, state: Dict[str, np.ndarray], prefix: str = ""
) -> None:
    """Restore a state dict into an architecture-matching agent.

    Archives from before the full-fidelity keys (optimizer moments,
    scheduler ticks, RNG streams) load without them — sufficient for
    evaluation, not for bitwise training resumption.
    """
    try:
        agent.policy.load_flat_parameters(state[f"{prefix}policy"])
        agent.value_net.load_flat_parameters(state[f"{prefix}value"])
    except KeyError as exc:
        raise KeyError(f"checkpoint missing key {exc} (prefix {prefix!r})") from None
    agent.episodes_seen = int(state[f"{prefix}episodes_seen"][0])
    agent.actor_opt.set_lr(float(state[f"{prefix}actor_lr"][0]))
    agent.critic_opt.set_lr(float(state[f"{prefix}critic_lr"][0]))
    for name, opt in (("actor", agent.actor_opt), ("critic", agent.critic_opt)):
        if f"{prefix}{name}_opt_m" in state:
            opt.load_flat_state(
                state[f"{prefix}{name}_opt_m"],
                state[f"{prefix}{name}_opt_v"],
                int(state[f"{prefix}{name}_opt_step_count"][0]),
            )
    if f"{prefix}actor_sched_ticks" in state:
        agent._actor_sched.load_ticks(int(state[f"{prefix}actor_sched_ticks"][0]))
        agent._critic_sched.load_ticks(
            int(state[f"{prefix}critic_sched_ticks"][0])
        )
    if f"{prefix}policy_rng" in state:
        restore_generator_state(
            agent.policy._sample_rng, state[f"{prefix}policy_rng"]
        )
    if f"{prefix}shuffle_rng" in state:
        restore_generator_state(agent._shuffle_rng, state[f"{prefix}shuffle_rng"])
    if f"{prefix}buffer_rewards" in state:
        agent.buffer.clear()
        agent.buffer.extend(
            {key: state[f"{prefix}buffer_{key}"] for key in BUFFER_FIELDS}
        )
    if agent.obs_stat is not None:
        if f"{prefix}obs_mean" not in state:
            raise KeyError(
                "checkpoint lacks observation statistics but the agent "
                "normalizes observations"
            )
        agent.obs_stat.mean = np.asarray(state[f"{prefix}obs_mean"], dtype=float)
        agent.obs_stat.var = np.asarray(state[f"{prefix}obs_var"], dtype=float)
        agent.obs_stat.count = float(state[f"{prefix}obs_count"][0])


def save_ppo(agent: PPOAgent, path: PathLike) -> Path:
    """Write one agent's checkpoint to ``path`` (``.npz`` appended if absent)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez(target, **ppo_state_dict(agent))
    return target if target.suffix == ".npz" else target.with_suffix(".npz")


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
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez(target, **merged)
    return target if target.suffix == ".npz" else target.with_suffix(".npz")


def load_many(agents: Dict[str, PPOAgent], path: PathLike) -> None:
    """Inverse of :func:`save_many` for the same agent names."""
    with np.load(Path(path)) as archive:
        state = dict(archive)
    for name, agent in agents.items():
        load_ppo_state(agent, state, prefix=f"{name}/")
