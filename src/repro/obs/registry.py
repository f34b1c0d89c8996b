"""Process-wide metrics registry: counters, gauges, histograms, EWMAs.

Instruments are addressed by dotted name plus optional labels::

    obs.counter("env.rounds").inc()
    obs.gauge("env.accuracy").set(0.93)
    obs.histogram("env.round_time").observe(42.0)
    obs.counter("faults.crashed", node=3).inc()

The module keeps one *active* registry behind the facade functions in
:mod:`repro.obs`.  By default the active registry is a shared
:class:`NoopRegistry` whose instruments are module-level singletons doing
nothing — instrumented hot paths cost one function call and no
allocation.  :func:`enable` swaps in a live :class:`MetricsRegistry`;
:func:`disable` swaps the no-op back.  Enabling or disabling never
touches any random stream, so rollouts are bit-identical either way.

All instruments are thread-safe (one lock per instrument; the registry
dict has its own lock for creation).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracing import NOOP_SPAN, NoopSpan, Span, SpanTracer

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram bucket upper bounds.  Spans seconds-scale round
#: times and unit-scale counts; +Inf is implicit.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
)

#: Quantiles estimated online by every histogram.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


class _P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac).

    Maintains five markers whose heights converge to the ``p`` quantile
    without storing observations.  Deterministic — no RNG involved.
    """

    __slots__ = ("p", "_initial", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self._initial: List[float] = []
        self._q: List[float] = []
        self._n: List[float] = []
        self._np: List[float] = []
        self._dn: List[float] = []

    def observe(self, x: float) -> None:
        if not self._q:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                p = self.p
                self._q = list(self._initial)
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
                self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]
            return
        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            if x > q[4]:
                q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._np[i] += self._dn[i]
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if d > 0 else -1.0
                candidate = q[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    step = int(d)
                    q[i] += d * (q[i + step] - q[i]) / (n[i + step] - n[i])
                n[i] += d

    def value(self) -> Optional[float]:
        if self._q:
            return self._q[2]
        if not self._initial:
            return None
        ordered = sorted(self._initial)
        # Linear interpolation over the few buffered observations.
        pos = self.p * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac


class Counter:
    """Monotonically increasing count (events, totals of amounts)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "type": "counter",
                "labels": dict(self.labels),
                "value": self._value,
            }


class Gauge:
    """Point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "type": "gauge",
                "labels": dict(self.labels),
                "value": self._value,
            }


class EWMA:
    """Exponentially weighted moving average of an observed series."""

    __slots__ = ("name", "labels", "alpha", "_value", "_count", "_lock")

    def __init__(self, name: str, labels: Dict[str, str], alpha: float = 0.1):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.name = name
        self.labels = labels
        self.alpha = alpha
        self._value = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def update(self, x: float) -> None:
        with self._lock:
            if self._count == 0:
                self._value = float(x)
            else:
                self._value += self.alpha * (float(x) - self._value)
            self._count += 1

    @property
    def value(self) -> float:
        return self._value

    @property
    def count(self) -> int:
        return self._count

    def snapshot(self) -> dict:
        # Locked so (value, count) is an atomic pair: an unlocked read can
        # observe count from after an update but value from before it.
        with self._lock:
            return {
                "name": self.name,
                "type": "ewma",
                "labels": dict(self.labels),
                "value": self._value,
                "alpha": self.alpha,
                "count": self._count,
            }


class Histogram:
    """Fixed-bucket distribution plus streaming quantile estimates."""

    __slots__ = (
        "name",
        "labels",
        "buckets",
        "_bucket_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_quantiles",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ):
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.buckets = tuple(bounds)
        self._bucket_counts = [0] * (len(bounds) + 1)  # last = overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._quantiles = {q: _P2Quantile(q) for q in quantiles}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            placed = False
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    placed = True
                    break
            if not placed:
                self._bucket_counts[-1] += 1
            for estimator in self._quantiles.values():
                estimator.observe(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> Optional[float]:
        estimator = self._quantiles.get(q)
        if estimator is None:
            raise KeyError(f"quantile {q} is not tracked by {self.name!r}")
        # The P² marker lists are mutated in place by observe(); read them
        # under the same lock so a concurrent observation cannot be seen
        # mid-update.
        with self._lock:
            return estimator.value()

    def snapshot(self) -> dict:
        with self._lock:
            cumulative = []
            running = 0
            for bound, n in zip(self.buckets, self._bucket_counts):
                running += n
                cumulative.append([bound, running])
            return {
                "name": self.name,
                "type": "histogram",
                "labels": dict(self.labels),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": cumulative,
                "quantiles": {
                    str(q): est.value() for q, est in self._quantiles.items()
                },
            }


# --------------------------------------------------------------------- #
# no-op twins (module-level singletons; see the guard test in
# tests/obs/test_obs_overhead.py)
# --------------------------------------------------------------------- #
class NoopCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class NoopGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class NoopEWMA:
    __slots__ = ()

    def update(self, x: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0


class NoopHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0


NOOP_COUNTER = NoopCounter()
NOOP_GAUGE = NoopGauge()
NOOP_EWMA = NoopEWMA()
NOOP_HISTOGRAM = NoopHistogram()


class NoopRegistry:
    """Disabled-mode registry: every lookup returns a shared no-op."""

    def counter(self, name: str, **labels) -> NoopCounter:
        return NOOP_COUNTER

    def gauge(self, name: str, **labels) -> NoopGauge:
        return NOOP_GAUGE

    def ewma(self, name: str, alpha: float = 0.1, **labels) -> NoopEWMA:
        return NOOP_EWMA

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels
    ) -> NoopHistogram:
        return NOOP_HISTOGRAM

    def span(self, name: str) -> NoopSpan:
        return NOOP_SPAN

    def event(self, name: str, record: dict) -> None:
        pass

    def add_sink(self, sink) -> None:
        pass

    def remove_sink(self, sink) -> None:
        pass

    @property
    def sinks(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {"metrics": [], "profile": []}

    def profile(self) -> List[dict]:
        return []

    def reset(self) -> None:
        pass


class MetricsRegistry:
    """Live registry: named, labelled instruments plus a span tracer."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[LabelKey, object] = {}
        self._sinks: List[object] = []
        self.tracer = SpanTracer()

    # ------------------------------------------------------------------ #
    # instrument lookup (get-or-create)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(name: str, labels: Dict[str, str]) -> LabelKey:
        return (name, tuple(sorted(labels.items())))

    def _get(self, cls, name: str, labels: dict, *args):
        labels = {k: str(v) for k, v in labels.items()}
        key = self._key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, labels, *args)
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"{name!r} is already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def ewma(self, name: str, alpha: float = 0.1, **labels) -> EWMA:
        return self._get(EWMA, name, labels, alpha)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets)

    # ------------------------------------------------------------------ #
    # spans and events
    # ------------------------------------------------------------------ #
    def span(self, name: str) -> Span:
        return Span(self.tracer, name)

    def event(self, name: str, record: dict) -> None:
        """Stream one structured event record to every attached sink."""
        # Iterate a snapshot so a concurrent add/remove_sink cannot
        # invalidate the iterator mid-event.
        for sink in list(self._sinks):
            sink.emit(name, record)

    def add_sink(self, sink) -> None:
        """Attach an event sink (anything with ``emit(name, record)``)."""
        if not hasattr(sink, "emit"):
            raise TypeError(f"sink {sink!r} has no emit() method")
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> list:
        return list(self._sinks)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-ready state: every instrument plus the span profile."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {
            "metrics": [inst.snapshot() for _key, inst in instruments],
            "profile": self.tracer.profile(),
        }

    def profile(self) -> List[dict]:
        return self.tracer.profile()

    def reset(self) -> None:
        """Drop every instrument and all span stats (sinks stay attached)."""
        with self._lock:
            self._instruments.clear()
        self.tracer.reset()


NOOP_REGISTRY = NoopRegistry()
_active = NOOP_REGISTRY


def get_registry():
    """The currently active registry (live or the shared no-op)."""
    return _active


def enabled() -> bool:
    """Whether a live registry is collecting (False costs ~nothing)."""
    return _active is not NOOP_REGISTRY


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Swap in a live registry (a fresh one unless given) and return it.

    Calling :func:`enable` while already enabled keeps the existing live
    registry unless an explicit ``registry`` is passed.
    """
    global _active
    if registry is not None:
        _active = registry
    elif _active is NOOP_REGISTRY:
        _active = MetricsRegistry()
    return _active


def disable():
    """Swap the no-op registry back in; returns the previous registry."""
    global _active
    previous = _active
    _active = NOOP_REGISTRY
    return previous
