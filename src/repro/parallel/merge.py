"""Cross-process aggregation of worker results.

Workers are hermetic, so everything they produce comes back as plain
data: episode dicts and
:meth:`~repro.obs.registry.MetricsRegistry.snapshot` dicts.  This module
folds the snapshots back together in the parent:

* :func:`merge_snapshots` — one registry snapshot from many, with
  per-type semantics: counters **sum**; gauges take the **last** value in
  item order; EWMAs combine as a **count-weighted mean** (the exact
  result is order-dependent, so this is the canonical approximation);
  histograms sum their bucket/count/sum tallies exactly, combine min/max,
  and average quantile estimates by count (streaming P² states are not
  mergeable exactly); span profiles merge by path, summing
  count/total/self.

Everything here is pure data-to-data so it can be golden-tested without
spawning a single process.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "merge_snapshots",
    "merge_profiles",
]

_MetricKey = Tuple[str, Tuple[Tuple[str, str], ...], str]


def _metric_key(metric: dict) -> _MetricKey:
    return (
        metric["name"],
        tuple(sorted(metric.get("labels", {}).items())),
        metric["type"],
    )


def _decumulate(buckets: List[list]) -> List[float]:
    """Cumulative ``[bound, running]`` pairs -> per-bucket counts."""
    counts = []
    previous = 0.0
    for _bound, running in buckets:
        counts.append(running - previous)
        previous = running
    return counts


def _merge_group(group: List[dict]) -> dict:
    first = group[0]
    kind = first["type"]
    merged = {
        "name": first["name"],
        "type": kind,
        "labels": dict(first.get("labels", {})),
    }
    if kind == "counter":
        merged["value"] = float(sum(m["value"] for m in group))
    elif kind == "gauge":
        merged["value"] = group[-1]["value"]
    elif kind == "ewma":
        total = sum(m.get("count", 0) for m in group)
        if total:
            merged["value"] = (
                sum(m["value"] * m.get("count", 0) for m in group) / total
            )
        else:
            merged["value"] = first["value"]
        merged["alpha"] = first.get("alpha")
        merged["count"] = total
    elif kind == "histogram":
        bounds = [bound for bound, _ in first["buckets"]]
        for m in group[1:]:
            if [bound for bound, _ in m["buckets"]] != bounds:
                raise ValueError(
                    f"histogram {first['name']!r} has mismatched bucket "
                    "bounds across snapshots"
                )
        per_bucket = [0.0] * len(bounds)
        for m in group:
            for i, n in enumerate(_decumulate(m["buckets"])):
                per_bucket[i] += n
        cumulative, running = [], 0.0
        for bound, n in zip(bounds, per_bucket):
            running += n
            cumulative.append([bound, running])
        merged["buckets"] = cumulative
        merged["count"] = sum(m["count"] for m in group)
        merged["sum"] = float(sum(m["sum"] for m in group))
        mins = [m["min"] for m in group if m.get("min") is not None]
        maxs = [m["max"] for m in group if m.get("max") is not None]
        merged["min"] = min(mins) if mins else None
        merged["max"] = max(maxs) if maxs else None
        quantiles: Dict[str, Optional[float]] = {}
        for q in first.get("quantiles", {}):
            weighted, weight = 0.0, 0.0
            for m in group:
                value = m.get("quantiles", {}).get(q)
                if value is not None and m["count"]:
                    weighted += value * m["count"]
                    weight += m["count"]
            quantiles[q] = weighted / weight if weight else None
        merged["quantiles"] = quantiles
    else:
        raise ValueError(f"unknown metric type {kind!r}")
    return merged


def merge_profiles(profiles: Sequence[List[dict]]) -> List[dict]:
    """Merge span profiles by path, summing count/total/self.

    Output is sorted by path so the merged profile is deterministic
    regardless of which worker finished first.
    """
    by_path: Dict[str, dict] = {}
    for profile in profiles:
        for node in profile:
            slot = by_path.get(node["path"])
            if slot is None:
                by_path[node["path"]] = dict(node)
            else:
                slot["count"] += node["count"]
                slot["total"] += node["total"]
                slot["self"] += node["self"]
    return [by_path[path] for path in sorted(by_path)]


def merge_snapshots(snapshots: Sequence[Optional[dict]]) -> dict:
    """Fold worker registry snapshots into one snapshot-shaped dict.

    ``None`` entries (items that did not collect observability) are
    skipped.  The result renders through the normal exporters
    (:func:`repro.obs.exporters.to_prometheus` / ``to_json``).
    """
    present = [s for s in snapshots if s is not None]
    groups: Dict[_MetricKey, List[dict]] = {}
    for snap in present:
        for metric in snap.get("metrics", []):
            groups.setdefault(_metric_key(metric), []).append(metric)
    metrics = [_merge_group(groups[key]) for key in sorted(groups)]
    return {
        "metrics": metrics,
        "profile": merge_profiles([s.get("profile", []) for s in present]),
    }
