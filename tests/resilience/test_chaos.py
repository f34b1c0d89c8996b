"""Chaos harness: deterministic mixtures and the accounting audit."""

from __future__ import annotations

import tempfile

import pytest

from repro.resilience.chaos import (
    EXPECTED_OUTCOME,
    ChaosConfig,
    chaos_items,
    run_chaos,
)

pytestmark = pytest.mark.resilience

SMALL = ChaosConfig(
    n_echo=3,
    n_flaky=1,
    n_fail=1,
    n_crash=1,
    n_hang=1,
    n_unpicklable=1,
    # Bounds execution only: the pool's start ack excludes worker cold
    # start from the clock, so a loaded host can't fail healthy items.
    item_timeout=2.0,
)


class TestChaosItems:
    def test_mixture_is_deterministic_in_seed(self, tmp_path):
        a = chaos_items(SMALL, scratch_dir=str(tmp_path / "a"))
        b = chaos_items(SMALL, scratch_dir=str(tmp_path / "b"))
        assert [i["kind"] for i in a] == [i["kind"] for i in b]

    def test_different_seed_different_order(self, tmp_path):
        a = chaos_items(SMALL, scratch_dir=str(tmp_path / "a"))
        config = ChaosConfig(
            **{**SMALL.__dict__, "seed": 1}
        )
        b = chaos_items(config, scratch_dir=str(tmp_path / "b"))
        assert [i["kind"] for i in a] != [i["kind"] for i in b]

    def test_every_kind_has_a_contract(self, tmp_path):
        kinds = {i["kind"] for i in chaos_items(SMALL, str(tmp_path))}
        assert kinds <= set(EXPECTED_OUTCOME)


class TestRunChaos:
    def test_accounting_invariant_holds(self, tmp_path):
        report = run_chaos(SMALL, scratch_dir=str(tmp_path / "scratch"))
        assert report.ok, report.render()
        assert report.n_items == SMALL.n_items
        assert report.delivered == SMALL.n_echo + SMALL.n_flaky
        assert report.quarantined == (
            SMALL.n_fail + SMALL.n_crash + SMALL.n_hang + SMALL.n_unpicklable
        )
        assert not report.unaccounted

    def test_temporary_scratch_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        config = ChaosConfig(
            n_echo=1, n_flaky=1, n_fail=0, n_crash=0, n_hang=0, n_unpicklable=0
        )
        report = run_chaos(config)
        assert report.ok, report.render()
        assert report.delivered == 2
        assert not list(tmp_path.glob("chaos-*"))

    def test_in_process_execution_refused(self):
        with pytest.raises(ValueError, match="workers >= 2"):
            run_chaos(ChaosConfig(workers=1))
