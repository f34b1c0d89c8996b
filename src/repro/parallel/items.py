"""Hermetic work items: the unit of distribution for the sweep engine.

A work item is a plain JSON-or-pickle-able dict with a ``"kind"`` key.
:func:`execute` is the single module-level entry point the worker pool
resolves by path (``"repro.parallel.items:execute"``), so no closures or
live objects ever cross the process boundary.

Hermeticity is what buys determinism: every item carries *descriptions*
(a :class:`~repro.core.builder.BuildConfig` dict, a mechanism name, seed
integers) and the worker rebuilds the live objects from scratch.  Nothing
an item computes depends on process-global state, which worker ran it, or
what ran before it — so ``workers=1`` in-process execution and any pooled
execution are bit-identical (proved by the ``parallel_w4`` differential
variant and the sweep fingerprint).

Item kinds:

* ``sweep`` — one full (build, mechanism, seed) cell: rebuild the
  environment, train, evaluate; return episode dicts.  The grid cell of
  :func:`repro.parallel.engine.run_sweep`.
* ``eval`` — evaluation episodes of an already-trained mechanism; the
  payload carries ``pickle.dumps((env, mechanism))`` and explicit
  per-episode seeds (the seeded path of
  :func:`repro.experiments.runner.evaluate_mechanism`, in process at
  ``workers=1``, pooled above).
* ``capture`` — golden-trace capture of a named differential scenario
  (the ``parallel_w4`` variant).
* test kinds (``echo`` / ``fail`` / ``flaky`` / ``crash`` / ``hang`` /
  ``unpicklable``) — deliberately misbehaving items exercising the
  pool's retry, quarantine, crash and serialization paths.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from typing import Any, Dict, List, Optional

from repro.experiments.results import EpisodeResult

__all__ = [
    "execute",
    "sweep_item",
    "eval_item",
    "capture_item",
    "episodes_from_dicts",
]


def sweep_item(
    build: Dict[str, Any],
    mechanism: str,
    rng_root: Optional[int],
    rng_stream: str,
    train_episodes: int,
    eval_episodes: int,
    tier: str = "quick",
    key: Optional[Dict[str, Any]] = None,
    collect_obs: bool = False,
) -> Dict[str, Any]:
    """One (environment, mechanism, seed) sweep cell as a payload dict.

    ``build`` is ``BuildConfig.to_dict()`` output; ``rng_root`` and
    ``rng_stream`` name the mechanism's stream in a
    :class:`~repro.utils.rng.SeedSequenceFactory` — passing the exact
    stream string the sequential code used (e.g. ``"chiron/140.0/0"``)
    makes the engine reproduce historical results bit-for-bit.
    """
    return {
        "kind": "sweep",
        "build": build,
        "mechanism": mechanism,
        "rng_root": rng_root,
        "rng_stream": rng_stream,
        "train_episodes": int(train_episodes),
        "eval_episodes": int(eval_episodes),
        "tier": tier,
        "key": key or {},
        "obs": bool(collect_obs),
    }


def eval_item(bundle: bytes, seeds: List[Optional[int]]) -> Dict[str, Any]:
    """Evaluation episodes of a trained ``(env, mechanism)`` pickle."""
    return {"kind": "eval", "bundle": bundle, "seeds": list(seeds)}


def capture_item(scenario: str) -> Dict[str, Any]:
    """Golden-trace capture of a registered differential scenario."""
    return {"kind": "capture", "scenario": scenario}


def episodes_from_dicts(rows: List[Dict[str, Any]]) -> List[EpisodeResult]:
    """Rebuild :class:`EpisodeResult` values from their dict form."""
    return [EpisodeResult(**row) for row in rows]


def _collecting_obs(collect: bool):
    """Context manager: fresh registry while the item runs, or no-op.

    Saves and restores whatever registry the process had active, so an
    in-process (``workers=1``) item never perturbs the caller's
    observability state.
    """
    import contextlib

    from repro.obs import registry as registry_mod

    @contextlib.contextmanager
    def _ctx():
        if not collect:
            yield None
            return
        previous = registry_mod.get_registry()
        live = registry_mod.enable(registry_mod.MetricsRegistry())
        try:
            yield live
        finally:
            if previous is registry_mod.NOOP_REGISTRY:
                registry_mod.disable()
            else:
                registry_mod.enable(previous)

    return _ctx()


def _run_sweep(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.builder import BuildConfig
    from repro.experiments.mechanisms import make_mechanism
    from repro.experiments.runner import evaluate_mechanism, train_mechanism
    from repro.utils.rng import SeedSequenceFactory

    config = BuildConfig.from_dict(payload["build"])
    with _collecting_obs(payload.get("obs", False)) as registry:
        build = config.build()
        seeds = SeedSequenceFactory(payload["rng_root"])
        mechanism = make_mechanism(
            payload["mechanism"],
            build.env,
            rng=seeds.generator(payload["rng_stream"]),
            tier=payload.get("tier", "quick"),
        )
        history = train_mechanism(
            build.env, mechanism, payload["train_episodes"]
        )
        eval_episodes = evaluate_mechanism(
            build.env, mechanism, payload["eval_episodes"]
        )
        snapshot = registry.snapshot() if registry is not None else None
    return {
        "key": payload.get("key", {}),
        "mechanism": payload["mechanism"],
        "train_episodes": [
            dataclasses.asdict(e) for e in history.episodes
        ],
        "eval_episodes": [dataclasses.asdict(e) for e in eval_episodes],
        "obs_snapshot": snapshot,
    }


def _run_eval(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.runner import run_episode

    env, mechanism = pickle.loads(payload["bundle"])
    if hasattr(mechanism, "eval_mode"):
        mechanism.eval_mode()
    rows = []
    for seed in payload["seeds"]:
        result, _diag = run_episode(env, mechanism, seed=seed)
        rows.append(dataclasses.asdict(result))
    return {"episodes": rows}


def _run_capture(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.testing.scenarios import capture, get_scenario

    trace = capture(get_scenario(payload["scenario"]))
    return {"scenario": payload["scenario"], "trace": trace.to_payload()}


def _run_test_kind(payload: Dict[str, Any]) -> Dict[str, Any]:
    kind = payload["kind"]
    if kind == "echo":
        return {"value": payload.get("value"), "pid": os.getpid()}
    if kind == "fail":
        raise RuntimeError(payload.get("message", "deliberate failure"))
    if kind == "flaky":
        # Fails until ``path`` has accumulated ``fail_times`` attempt
        # marks; the file is the only state shared across retries (retries
        # may land on different worker processes).
        path = payload["path"]
        with open(path, "ab") as handle:
            handle.write(b"x")
        if os.path.getsize(path) <= int(payload.get("fail_times", 1)):
            raise RuntimeError("flaky item: not yet")
        return {"value": payload.get("value"), "pid": os.getpid()}
    if kind == "crash":
        os._exit(int(payload.get("exitcode", 3)))
    if kind == "hang":
        time.sleep(float(payload.get("seconds", 3600.0)))
        return {"value": None}
    if kind == "unpicklable":
        return {"value": lambda: None}  # defeats pickle on purpose
    raise ValueError(f"unknown work item kind {kind!r}")


def execute(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one work item; the pool resolves this function by path."""
    kind = payload.get("kind")
    if kind == "sweep":
        return _run_sweep(payload)
    if kind == "eval":
        return _run_eval(payload)
    if kind == "capture":
        return _run_capture(payload)
    return _run_test_kind(payload)
