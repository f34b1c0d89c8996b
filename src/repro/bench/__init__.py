"""Rollout throughput benchmarks.

Measures environment steps per second for the sequential reference path
(``num_envs = 1``, :func:`repro.experiments.runner.run_episode`) and the
vectorized engine (:func:`repro.experiments.runner.run_episodes_vectorized`)
at increasing replica counts, on identical configurations.

Run as ``python -m repro.bench rollout --num-envs 1,4,8``; results land in
``BENCH_rollout.json``.  The rollout runs with learning frozen (no PPO
updates) but the full stochastic acting path — observation-normalizer
updates, Gaussian sampling, value estimates — so the measured cost is the
per-step inference + environment work that vectorization targets.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.builder import build_environment
from repro.core.chiron import ChironAgent, ChironConfig
from repro.core.vector import VectorizedEdgeLearningEnv
from repro.experiments.runner import run_episode, run_episodes_vectorized
from repro.obs.registry import MetricsRegistry


class _StepCounter:
    """Counts ``step`` calls on instrumented environment replicas."""

    def __init__(self):
        self.count = 0

    def instrument(self, env) -> None:
        original = env.step

        def counted(prices, *args, **kwargs):
            self.count += 1
            return original(prices, *args, **kwargs)

        env.step = counted


def _make_agent(env, agent_seed: int) -> ChironAgent:
    # deterministic_eval=False keeps the stochastic acting path (normalizer
    # updates + sampling) under eval_mode, i.e. a training-shaped rollout
    # without the PPO update cost polluting the throughput number.
    agent = ChironAgent(
        env,
        ChironConfig(deterministic_eval=False),
        rng=np.random.default_rng(agent_seed),
    )
    agent.eval_mode()
    return agent


def _bench_sequential(
    env_seed: int,
    agent_seed: int,
    episodes: int,
    warmup_episodes: int,
    **build_kwargs,
) -> Dict[str, float]:
    env = build_environment(seed=env_seed, **build_kwargs).env
    agent = _make_agent(env, agent_seed)
    for _ in range(warmup_episodes):
        run_episode(env, agent)
    counter = _StepCounter()
    counter.instrument(env)
    start = time.perf_counter()
    for _ in range(episodes):
        run_episode(env, agent)
    elapsed = time.perf_counter() - start
    return {
        "num_envs": 1,
        "mode": "sequential",
        "episodes": episodes,
        "steps": counter.count,
        "seconds": elapsed,
        "steps_per_sec": counter.count / elapsed,
    }


def _bench_vectorized(
    env_seed: int,
    agent_seed: int,
    num_envs: int,
    episodes: int,
    warmup_episodes: int,
    **build_kwargs,
) -> Dict[str, float]:
    env = build_environment(seed=env_seed, **build_kwargs).env
    agent = _make_agent(env, agent_seed)
    venv = VectorizedEdgeLearningEnv.from_env(env, num_envs)
    if warmup_episodes:
        run_episodes_vectorized(venv, agent, warmup_episodes * num_envs, num_envs)
    counter = _StepCounter()
    for replica in venv.envs:
        counter.instrument(replica)
    start = time.perf_counter()
    run_episodes_vectorized(venv, agent, episodes, num_envs)
    elapsed = time.perf_counter() - start
    return {
        "num_envs": num_envs,
        "mode": "vectorized",
        "episodes": episodes,
        "steps": counter.count,
        "seconds": elapsed,
        "steps_per_sec": counter.count / elapsed,
    }


def _collect_profile(
    env_seed: int, agent_seed: int, **build_kwargs
) -> List[dict]:
    """Span profile of one instrumented sequential episode.

    Uses a private registry so the benchmark numbers above (measured with
    observability off) stay untouched, and restores whatever obs state the
    caller had.
    """
    env = build_environment(seed=env_seed, **build_kwargs).env
    agent = _make_agent(env, agent_seed)
    previous = obs.get_registry()
    registry = MetricsRegistry()
    obs.enable(registry)
    try:
        run_episode(env, agent)
        return registry.profile()
    finally:
        if previous is obs.NOOP_REGISTRY:
            obs.disable()
        else:
            obs.enable(previous)


def run_rollout_benchmark(
    num_envs: List[int],
    episodes_per_env: int = 4,
    warmup_episodes: int = 1,
    n_nodes: int = 5,
    budget: float = 100.0,
    seed: int = 0,
    agent_seed: int = 42,
    include_profile: bool = True,
) -> dict:
    """Benchmark rollout throughput at each replica count in ``num_envs``.

    Every entry rolls out ``episodes_per_env × num_envs`` episodes on a
    freshly built environment/agent pair (identical config and seeds), so
    per-replica workloads match across entries.  ``num_envs = 1`` uses the
    sequential reference path and anchors the reported speedups.
    """
    build_kwargs = dict(n_nodes=n_nodes, budget=budget)
    results = []
    for m in num_envs:
        if m == 1:
            entry = _bench_sequential(
                seed, agent_seed, episodes_per_env, warmup_episodes, **build_kwargs
            )
        else:
            entry = _bench_vectorized(
                seed,
                agent_seed,
                m,
                episodes_per_env * m,
                warmup_episodes,
                **build_kwargs,
            )
        results.append(entry)
    baseline = next((r for r in results if r["num_envs"] == 1), None)
    speedups: Dict[str, float] = {}
    if baseline is not None:
        for entry in results:
            speedups[str(entry["num_envs"])] = (
                entry["steps_per_sec"] / baseline["steps_per_sec"]
            )
    report = {
        "benchmark": "rollout",
        "config": {
            "n_nodes": n_nodes,
            "budget": budget,
            "seed": seed,
            "agent_seed": agent_seed,
            "episodes_per_env": episodes_per_env,
            "warmup_episodes": warmup_episodes,
        },
        "results": results,
        "speedup_vs_sequential": speedups,
    }
    if include_profile:
        report["profile"] = _collect_profile(seed, agent_seed, **build_kwargs)
    return report


def _smoke_rollout_fingerprint(
    num_envs: int,
    episodes: int,
    fast_inference: bool,
    batched_respond: bool,
    n_nodes: int,
    budget: float,
    seed: int,
    agent_seed: int,
) -> str:
    """Fingerprint of a seeded vectorized rollout under one engine mode.

    ``fast_inference=False`` reroutes every policy forward through the
    generic autograd path (:meth:`repro.nn.module.Module.infer`) instead
    of the fused :meth:`Sequential.infer` kernels; ``batched_respond=False``
    forces one population call per replica instead of the shared (M, n)
    batched call.  All modes must fingerprint identically — that IS the
    hot-path bit-identity contract.
    """
    env = build_environment(seed=seed, n_nodes=n_nodes, budget=budget).env
    agent = _make_agent(env, agent_seed)
    venv = VectorizedEdgeLearningEnv.from_env(env, num_envs)
    if not batched_respond:
        venv._shared_population = None
    if fast_inference:
        results = run_episodes_vectorized(venv, agent, episodes, num_envs)
    else:
        from repro.nn.module import Module
        from repro.rl import policy as _policy_mod

        original = _policy_mod._fast_forward
        _policy_mod._fast_forward = lambda net, x: Module.infer(net, x)
        try:
            results = run_episodes_vectorized(venv, agent, episodes, num_envs)
        finally:
            _policy_mod._fast_forward = original
    stats = [
        (
            r.rounds,
            r.final_accuracy,
            r.mean_time_efficiency,
            r.total_learning_time,
            r.budget_spent,
            r.reward_exterior,
            r.reward_inner,
            r.wasted_rounds,
        )
        for r, _ in results
    ]
    return hashlib.sha256(pickle.dumps(stats)).hexdigest()


def run_rollout_smoke(
    num_envs: int = 4,
    episodes: int = 8,
    n_nodes: int = 5,
    budget: float = 100.0,
    seed: int = 0,
    agent_seed: int = 42,
) -> dict:
    """Seconds-scale CI gate for the inference hot path.

    Replays the same seeded vectorized rollout four ways — the full fast
    path, a rerun of it, the per-replica (unbatched) population response,
    and the generic autograd forward — and demands one identical
    fingerprint across all of them.  A mismatch means a fused kernel, the
    batched best response, or the fast-forward dispatch silently diverged
    from the reference semantics.
    """
    modes = {
        "fast_path": (True, True),
        "fast_path_rerun": (True, True),
        "per_replica_respond": (True, False),
        "autograd_forward": (False, True),
    }
    fingerprints = {
        name: _smoke_rollout_fingerprint(
            num_envs,
            episodes,
            fast_inference=fast,
            batched_respond=batched,
            n_nodes=n_nodes,
            budget=budget,
            seed=seed,
            agent_seed=agent_seed,
        )
        for name, (fast, batched) in modes.items()
    }
    return {
        "benchmark": "rollout_smoke",
        "config": {
            "num_envs": num_envs,
            "episodes": episodes,
            "n_nodes": n_nodes,
            "budget": budget,
            "seed": seed,
            "agent_seed": agent_seed,
        },
        "fingerprints": fingerprints,
        "fingerprints_identical": len(set(fingerprints.values())) == 1,
    }


def run_sweep_benchmark(
    worker_counts: List[int],
    mechanisms: Optional[List[str]] = None,
    budgets: Optional[List[float]] = None,
    n_seeds: int = 2,
    n_nodes: int = 5,
    train_episodes: int = 30,
    eval_episodes: int = 3,
    max_rounds: int = 60,
    seed: int = 0,
) -> dict:
    """Benchmark the process-parallel sweep engine at each worker count.

    The *same* grid of hermetic work items (mechanism × budget ×
    seed_offset) is executed once per entry in ``worker_counts``; each
    entry records wall-clock seconds and the
    :meth:`~repro.parallel.SweepResult.fingerprint` of the results.  The
    report's ``fingerprints_identical`` flag is the engine's determinism
    contract made machine-checkable: every worker count must produce the
    same SHA-256 or the benchmark itself flags the run as invalid.

    ``cpu_count`` is recorded because the speedup column is only
    meaningful relative to available physical parallelism — on a 1-core
    host, pooled workers time-slice one CPU and the expected speedup for
    this CPU-bound workload is ~1x (plus process overhead), which is the
    honest number, not a bug.
    """
    import os

    from repro.parallel import grid_items, run_sweep

    mechanisms = mechanisms or ["chiron", "greedy", "random"]
    budgets = budgets or [40.0, 80.0]
    items = grid_items(
        mechanisms=mechanisms,
        budgets=budgets,
        n_seeds=n_seeds,
        seed=seed,
        train_episodes=train_episodes,
        eval_episodes=eval_episodes,
        build_kwargs={
            "task_name": "mnist",
            "n_nodes": n_nodes,
            "accuracy_mode": "surrogate",
            "max_rounds": max_rounds,
        },
    )
    results = []
    for workers in worker_counts:
        sweep = run_sweep(items, workers=workers)
        results.append(
            {
                "workers": workers,
                "items": len(items),
                "seconds": sweep.elapsed,
                "items_per_sec": len(items) / sweep.elapsed,
                "fingerprint": sweep.fingerprint(),
                "retries": sweep.retries,
                "respawns": sweep.respawns,
                "quarantined": len(sweep.quarantined),
            }
        )
    baseline = next((r for r in results if r["workers"] == 1), None)
    speedups: Dict[str, float] = {}
    if baseline is not None:
        for entry in results:
            speedups[str(entry["workers"])] = (
                baseline["seconds"] / entry["seconds"]
            )
    fingerprints = {entry["fingerprint"] for entry in results}
    return {
        "benchmark": "sweep",
        "cpu_count": os.cpu_count(),
        "config": {
            "mechanisms": mechanisms,
            "budgets": budgets,
            "n_seeds": n_seeds,
            "n_nodes": n_nodes,
            "train_episodes": train_episodes,
            "eval_episodes": eval_episodes,
            "max_rounds": max_rounds,
            "seed": seed,
        },
        "results": results,
        "speedup_vs_workers1": speedups,
        "fingerprints_identical": len(fingerprints) == 1,
    }


def run_train_benchmark(
    worker_counts: List[int],
    episodes: int = 12,
    sync_every: Optional[int] = None,
    n_nodes: int = 5,
    budget: float = 18.0,
    max_rounds: int = 40,
    seed: int = 0,
    train_seed: int = 7,
) -> dict:
    """Benchmark the parallel *training* engine at each worker count.

    The same seeded quick-tier Chiron training run
    (:func:`repro.parallel.train_parallel`) executes once per entry in
    ``worker_counts``; each entry records wall-clock seconds and the run's
    :func:`~repro.parallel.training_fingerprint`.  The report's
    ``fingerprints_identical`` flag is the worker-count-invariance
    contract made machine-checkable: every worker count must reproduce
    the same SHA-256 or the benchmark flags the run as invalid.

    ``cpu_count`` is recorded because the speedup column is only
    meaningful relative to available physical parallelism — on a 1-core
    host, pooled collection workers time-slice one CPU and the expected
    "speedup" for this CPU-bound workload is <1x once spawn and pickle
    overhead is paid.  That is the honest number, not a bug; the
    fingerprint identity is the claim being pinned.
    """
    import os

    from repro.core.builder import build_environment
    from repro.experiments.mechanisms import make_mechanism
    from repro.parallel.training import train_parallel, training_fingerprint

    results = []
    for workers in worker_counts:
        env = build_environment(
            task_name="mnist",
            n_nodes=n_nodes,
            budget=budget,
            accuracy_mode="surrogate",
            seed=seed,
            max_rounds=max_rounds,
        ).env
        mechanism = make_mechanism("chiron", env, rng=seed, tier="quick")
        start = time.perf_counter()
        history = train_parallel(
            env,
            mechanism,
            episodes,
            seed=train_seed,
            workers=workers,
            sync_every=sync_every,
        )
        elapsed = time.perf_counter() - start
        results.append(
            {
                "workers": workers,
                "episodes": len(history),
                "seconds": elapsed,
                "episodes_per_sec": len(history) / elapsed,
                "fingerprint": training_fingerprint(history),
            }
        )
    baseline = next((r for r in results if r["workers"] == 1), None)
    speedups: Dict[str, float] = {}
    if baseline is not None:
        for entry in results:
            speedups[str(entry["workers"])] = (
                baseline["seconds"] / entry["seconds"]
            )
    fingerprints = {entry["fingerprint"] for entry in results}
    return {
        "benchmark": "train",
        "cpu_count": os.cpu_count(),
        "config": {
            "mechanism": "chiron",
            "episodes": episodes,
            "sync_every": sync_every,
            "n_nodes": n_nodes,
            "budget": budget,
            "max_rounds": max_rounds,
            "seed": seed,
            "train_seed": train_seed,
        },
        "results": results,
        "speedup_vs_workers1": speedups,
        "fingerprints_identical": len(fingerprints) == 1,
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


__all__ = [
    "run_rollout_benchmark",
    "run_sweep_benchmark",
    "run_train_benchmark",
    "write_report",
]
