"""Outside-in span tracing: wrap the program's public entry points.

Nothing inside ``repro`` is edited.  :func:`install` replaces each entry
point listed in :data:`LAYERS` with a wrapper that records one span per
outermost call, on the attribute the caller actually resolves: methods on
their class, module functions in the module whose global the caller reads
(a function imported by name is patched where it was imported).

Spans live in flat in-memory arrays (layer, parent, start, end) and are
written once, at the end of the traced trial.  A layer's self time is its
span durations minus the durations of the spans nested directly inside
them, so over the body the self times of all layers plus
``trace.unattributed_s`` add up to the traced body's wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> entry points wrapped, as ``"module:Class.attr"`` or
#: ``"module:function"``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "experiments.episode": ("repro.experiments.runner:run_episode",),
    "parallel.items": ("repro.parallel.items:execute",),
    "rl.update": ("repro.rl.ppo:PPOAgent.update",),
    "rl.gae": ("repro.rl.buffer:RolloutBuffer.compute",),
    "rl.loss": (
        "repro.rl.policy:GaussianPolicy.log_prob",
        "repro.rl.policy:GaussianPolicy.entropy",
        "repro.rl.policy:ValueNetwork.forward",
        "repro.nn.losses:MSELoss.forward",
    ),
    "rl.act": ("repro.rl.ppo:PPOAgent.act", "repro.rl.ppo:PPOAgent.act_batch"),
    "rl.store": ("repro.rl.ppo:PPOAgent.store",),
    "rl.collect": ("repro.rl.ppo:PPOAgent.take_collected",),
    "autograd.backward": ("repro.autograd.tensor:Tensor.backward",),
    "autograd.conv2d": ("repro.autograd.functional:conv2d",),
    "autograd.max_pool2d": ("repro.autograd.functional:max_pool2d",),
    "nn.forward": ("repro.nn.layers.container:Sequential.forward",),
    "nn.infer": ("repro.nn.layers.container:Sequential.infer",),
    "nn.adam": ("repro.nn.optim:Adam.step",),
    "nn.sgd": ("repro.nn.optim:SGD.step",),
    "core.mechanism": tuple(
        f"{owner}.{attr}"
        for owner in (
            "repro.core.chiron:ChironAgent",
            "repro.baselines.drl_single:DRLSingleAgent",
            "repro.baselines.greedy:GreedyMechanism",
            "repro.baselines.fixed_price:FixedPriceMechanism",
        )
        for attr in ("propose_prices", "observe")
    ),
    "core.env_step": ("repro.core.env:EdgeLearningEnv.step",),
    "core.env_reset": ("repro.core.env:EdgeLearningEnv.reset",),
    "core.encode": (
        "repro.core.state:ExteriorStateEncoder.encode",
        "repro.core.state:ExteriorStateEncoder.record_round",
    ),
    "population.respond": ("repro.population.soa:SoAPopulation.respond",),
    "fl.learning_step": (
        "repro.fl.accuracy:SurrogateAccuracy.step",
        "repro.fl.accuracy:RealTrainingAccuracy.step",
    ),
    "fl.local_update": ("repro.fl.node:EdgeNode.local_update",),
    "fl.aggregate": ("repro.fl.server:ParameterServer.aggregate",),
    "fl.evaluate": ("repro.fl.server:ParameterServer.evaluate",),
    "datasets.make_task": (
        "repro.datasets.synthetic:make_task",
        "repro.core.builder:make_task",
    ),
    "datasets.partition": (
        "repro.datasets.partition:partition_dataset",
        "repro.core.builder:partition_dataset",
    ),
}


class Tracer:
    """In-memory span recorder plus the counts the wrappers derive."""

    def __init__(self) -> None:
        self.names: List[str] = list(LAYERS)
        self._layer = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {
            "rl.update.minibatches": 0,
            "population.node_responses": 0,
            "core.rounds_kept": 0,
        }

    def wrap(
        self, name: str, fn: Callable, on_return: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording a ``name`` span per outermost call.

        A call made while a ``name`` span is innermost (a subclass method
        calling ``super()``, a ``Sequential`` inside a ``Sequential``) joins
        that span, so ``calls`` counts entries into the layer, not its
        internal recursion.
        """
        layer_id = self.names.index(name)
        layer, parent, start, end = self._layer, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and layer[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            index = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def layers(self, body_start: float, body_end: float) -> Dict[str, float]:
        """Per-layer ``calls``/``self_s`` plus the derived counts and ratios.

        Calls and self times cover set-up and body alike (set-up is where
        the datasets layers run); the ratios and ``trace.unattributed_s``
        refer to the body, ``body_start``..``body_end`` on the
        ``perf_counter`` clock.
        """
        body_s = body_end - body_start
        n = len(self._start)
        duration = [self._end[i] - self._start[i] for i in range(n)]
        nested = [0.0] * n
        top_level = 0.0
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                nested[p] += duration[i]
            elif self._start[i] >= body_start:
                top_level += duration[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        update_s = 0.0
        for i in range(n):
            name = self.names[self._layer[i]]
            calls[name] += 1
            self_s[name] += duration[i] - nested[i]
            if name == "rl.update":
                update_s += duration[i]
        out: Dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        backward_calls = calls["autograd.backward"]
        steps = calls["core.env_step"]
        out["rl.update.minibatches"] = self.counts["rl.update.minibatches"]
        out["rl.update.incl_frac"] = update_s / body_s
        out["autograd.backward.us_per_call"] = (
            1e6 * self_s["autograd.backward"] / backward_calls
            if backward_calls
            else 0.0
        )
        out["population.node_responses"] = self.counts["population.node_responses"]
        out["core.rounds_kept_frac"] = (
            self.counts["core.rounds_kept"] / steps if steps else 0.0
        )
        out["trace.unattributed_s"] = body_s - top_level
        return out

    def save(self, path) -> None:
        """Write every span once, as gzipped tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("layer\tparent\tstart\tend\n")
            for i in range(len(self._start)):
                handle.write(
                    f"{self.names[self._layer[i]]}\t{self._parent[i]}\t"
                    f"{self._start[i]!r}\t{self._end[i]!r}\n"
                )


def _resolve(target: str):
    """``(owner, attribute)`` for ``"module:Class.attr"`` or ``"module:fn"``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS` for the rest of the process."""
    counts = tracer.counts

    def count_minibatches(args, result) -> None:
        config = args[0].config
        size = int(result["batch_size"])
        per_epoch = math.ceil(size / (config.minibatch_size or size))
        counts["rl.update.minibatches"] += config.update_epochs * per_epoch

    def count_responses(args, result) -> None:
        counts["population.node_responses"] += result.participates.size

    def count_kept(args, result) -> None:
        counts["core.rounds_kept"] += result[4]["step_result"].round_kept

    hooks = {
        "rl.update": count_minibatches,
        "population.respond": count_responses,
        "core.env_step": count_kept,
    }
    for name, targets in LAYERS.items():
        for target in targets:
            owner, attr = _resolve(target)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hooks.get(name)))
