"""Cross-process merges: registry snapshots and span profiles."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.parallel.merge import merge_profiles, merge_snapshots

pytestmark = pytest.mark.parallel


def _registry(counter=0, gauge=None, hist=()) -> MetricsRegistry:
    reg = MetricsRegistry()
    if counter:
        reg.counter("episodes").inc(counter)
    if gauge is not None:
        reg.gauge("accuracy").set(gauge)
    for value in hist:
        reg.histogram("round_time", buckets=(1.0, 10.0)).observe(value)
    return reg


class TestMergeSnapshots:
    def test_counters_sum(self):
        merged = merge_snapshots(
            [_registry(counter=3).snapshot(), _registry(counter=4).snapshot()]
        )
        (metric,) = [m for m in merged["metrics"] if m["name"] == "episodes"]
        assert metric["value"] == 7.0

    def test_gauges_take_last_in_item_order(self):
        merged = merge_snapshots(
            [_registry(gauge=0.5).snapshot(), _registry(gauge=0.9).snapshot()]
        )
        (metric,) = [m for m in merged["metrics"] if m["name"] == "accuracy"]
        assert metric["value"] == 0.9

    def test_histograms_sum_exactly(self):
        merged = merge_snapshots(
            [
                _registry(hist=(0.5, 5.0)).snapshot(),
                _registry(hist=(20.0,)).snapshot(),
            ]
        )
        (metric,) = [m for m in merged["metrics"] if m["name"] == "round_time"]
        assert metric["count"] == 3
        assert metric["sum"] == pytest.approx(25.5)
        assert metric["min"] == 0.5
        assert metric["max"] == 20.0
        # cumulative bucket counts: <=1 saw one sample, <=10 saw two
        assert [c for _b, c in metric["buckets"]] == [1, 2]

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("round_time", buckets=(2.0, 4.0)).observe(1.0)
        with pytest.raises(ValueError):
            merge_snapshots(
                [_registry(hist=(0.5,)).snapshot(), reg.snapshot()]
            )

    def test_ewma_count_weighted(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for _ in range(3):
            a.ewma("eff", alpha=0.5).update(1.0)
        b.ewma("eff", alpha=0.5).update(0.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        (metric,) = merged["metrics"]
        assert metric["count"] == 4
        assert 0.0 < metric["value"] < 1.0

    def test_none_snapshots_skipped(self):
        merged = merge_snapshots([None, _registry(counter=2).snapshot(), None])
        (metric,) = merged["metrics"]
        assert metric["value"] == 2.0

    def test_merged_snapshot_renders_through_exporters(self):
        from repro.obs.exporters import parse_prometheus, to_prometheus

        merged = merge_snapshots(
            [
                _registry(counter=1, gauge=0.3, hist=(2.0,)).snapshot(),
                _registry(counter=2).snapshot(),
            ]
        )
        samples = parse_prometheus(to_prometheus(merged))
        assert samples[("episodes", ())] == 3.0


class TestMergeProfiles:
    def test_sums_by_path(self):
        p1 = [
            {"path": "episode", "name": "episode", "depth": 0, "count": 2,
             "total": 1.0, "self": 0.4},
        ]
        p2 = [
            {"path": "episode", "name": "episode", "depth": 0, "count": 1,
             "total": 0.5, "self": 0.1},
            {"path": "episode > step", "name": "step", "depth": 1, "count": 9,
             "total": 0.3, "self": 0.3},
        ]
        merged = merge_profiles([p1, p2])
        by_path = {n["path"]: n for n in merged}
        assert by_path["episode"]["count"] == 3
        assert by_path["episode"]["total"] == pytest.approx(1.5)
        assert by_path["episode > step"]["count"] == 9
