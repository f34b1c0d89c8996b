"""Pool edge paths: respawn exhaustion, post-quarantine ordering, callbacks."""

from __future__ import annotations

from multiprocessing import process as mp_process

import pytest

from repro.parallel.pool import ItemFailure, PoolConfig, run_items
from repro.resilience.journal import RunJournal, read_journal

pytestmark = [pytest.mark.parallel, pytest.mark.resilience]


class TestRespawnExhaustion:
    def test_spent_budget_quarantines_remainder_with_reason(self):
        # Two crash items kill both workers; with zero respawns allowed
        # the echo items can never run and must be quarantined loudly,
        # not dropped.
        items = [
            {"kind": "crash", "exitcode": 7},
            {"kind": "crash", "exitcode": 7},
            {"kind": "echo", "value": "starved-a"},
            {"kind": "echo", "value": "starved-b"},
        ]
        report = run_items(
            items,
            config=PoolConfig(
                workers=2,
                max_retries=0,
                max_respawns=0,
                backoff_base=0.01,
            ),
        )
        assert not report.ok
        assert report.results == [None] * 4
        assert {f.index for f in report.quarantined} == {0, 1, 2, 3}
        starved = [f for f in report.quarantined if f.index >= 2]
        assert starved
        for failure in starved:
            assert any("pool exhausted" in e for e in failure.errors)

    def test_budget_covers_kills_when_sized_for_them(self):
        items = [
            {"kind": "crash", "exitcode": 7},
            {"kind": "echo", "value": "fine"},
            {"kind": "echo", "value": "also-fine"},
        ]
        report = run_items(
            items,
            config=PoolConfig(
                workers=2,
                max_retries=0,
                max_respawns=2,
                backoff_base=0.01,
            ),
        )
        assert [f.index for f in report.quarantined] == [0]
        assert report.results[1]["value"] == "fine"
        assert report.results[2]["value"] == "also-fine"


class TestQuarantineThenRequeue:
    def test_items_after_a_quarantine_complete_in_submission_order(self):
        items = [{"kind": "crash", "exitcode": 3}] + [
            {"kind": "echo", "value": i} for i in range(5)
        ]
        report = run_items(
            items,
            config=PoolConfig(
                workers=2,
                max_retries=0,
                max_respawns=4,
                backoff_base=0.01,
            ),
        )
        assert [f.index for f in report.quarantined] == [0]
        assert report.results[0] is None
        assert [r["value"] for r in report.results[1:]] == list(range(5))

    def test_retry_requeues_behind_ready_items(self):
        # In-process path: a failing item retries after its backoff while
        # later items keep the submission-order result layout.
        items = [
            {"kind": "fail", "message": "always"},
            {"kind": "echo", "value": 1},
        ]
        report = run_items(
            items,
            config=PoolConfig(workers=1, max_retries=2, backoff_base=0.001),
        )
        assert report.results[0] is None
        assert report.results[1]["value"] == 1
        assert report.quarantined[0].attempts == 3


class TestCallbacks:
    def test_on_result_and_on_quarantine_fire_per_settled_item(self):
        seen_ok, seen_bad = [], []
        items = [
            {"kind": "echo", "value": 0},
            {"kind": "fail", "message": "nope"},
            {"kind": "echo", "value": 2},
        ]
        report = run_items(
            items,
            config=PoolConfig(workers=1, max_retries=0),
            on_result=lambda i, v: seen_ok.append((i, v["value"])),
            on_quarantine=lambda f: seen_bad.append(f.index),
        )
        assert seen_ok == [(0, 0), (2, 2)]
        assert seen_bad == [1]
        assert [f.index for f in report.quarantined] == [1]

    def test_should_stop_freezes_dispatch_and_reports_interrupted(self):
        report = run_items(
            [{"kind": "echo", "value": i} for i in range(4)],
            config=PoolConfig(workers=1),
            should_stop=lambda: True,
        )
        assert report.interrupted
        assert not report.ok
        assert report.results == [None] * 4
        assert report.quarantined == []


class TestSpawnFailure:
    def test_spawn_error_is_not_masked_by_shutdown(self, monkeypatch):
        # shutdown() joins every slot's process; a process whose start()
        # raised must not be in its slot, or the join's AssertionError
        # ("can only join a started process") replaces the real error.
        def refuse(self):
            raise RuntimeError("spawn refused")

        monkeypatch.setattr(mp_process.BaseProcess, "start", refuse)
        with pytest.raises(RuntimeError, match="spawn refused"):
            run_items(
                [{"kind": "echo", "value": i} for i in range(2)],
                config=PoolConfig(workers=2),
            )


class TestTimeoutExcludesColdStart:
    def test_timeout_below_cold_start_still_delivers_healthy_items(self):
        # Worker cold start (interpreter + numpy import) takes well over
        # 0.3s; the start-ack protocol must keep that off the item's
        # clock or healthy items get killed as hangs on a loaded host.
        items = [{"kind": "echo", "value": i} for i in range(4)]
        report = run_items(
            items,
            config=PoolConfig(
                workers=2,
                max_retries=0,
                max_respawns=0,
                backoff_base=0.01,
                item_timeout=0.3,
            ),
        )
        assert report.ok, [f.errors for f in report.quarantined]
        assert [r["value"] for r in report.results] == list(range(4))

    def test_hang_after_start_is_still_killed(self):
        items = [{"kind": "hang", "seconds": 60.0}]
        report = run_items(
            items,
            config=PoolConfig(
                workers=2,
                max_retries=0,
                backoff_base=0.01,
                item_timeout=0.3,
            ),
        )
        assert [f.index for f in report.quarantined] == [0]
        assert any("died" in e for e in report.quarantined[0].errors)

    def test_negative_startup_grace_rejected(self):
        with pytest.raises(ValueError, match="startup_grace"):
            PoolConfig(startup_grace=-1.0)


class TestItemFailureJournalRoundTrip:
    def test_failure_survives_journal_round_trip(self, tmp_path):
        failure = ItemFailure(
            index=11,
            attempts=3,
            errors=["worker 0 died (exitcode=9) while running item 11"] * 3,
        )
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.append(
                "item_quarantined",
                {
                    "failure": {
                        "index": failure.index,
                        "attempts": failure.attempts,
                        "errors": list(failure.errors),
                    }
                },
            )
        record = read_journal(path).records[0]
        back = ItemFailure(
            index=int(record.data["failure"]["index"]),
            attempts=int(record.data["failure"]["attempts"]),
            errors=list(record.data["failure"]["errors"]),
        )
        assert back == failure
