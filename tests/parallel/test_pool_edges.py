"""Pool edge paths: respawn exhaustion, post-quarantine ordering, orphans."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import process as mp_process
from pathlib import Path

import pytest

import repro
from repro.parallel.pool import PoolConfig, run_items

pytestmark = [pytest.mark.parallel, pytest.mark.resilience]

SRC = Path(repro.__file__).resolve().parents[1]

#: A pool's parent: one worker hangs on its item, the other runs an item
#: that leaves a mark at ``argv[1]`` and then waits idle for more work.
PARENT = textwrap.dedent(
    """
    import sys

    from repro.parallel.pool import PoolConfig, run_items

    run_items(
        [
            {"kind": "hang", "seconds": 3600.0},
            {"kind": "flaky", "path": sys.argv[1], "fail_times": 0},
        ],
        config=PoolConfig(workers=2, max_retries=0),
    )
    """
)


def _group_survivors(pgid: int) -> int:
    """Live (non-zombie) processes in process group ``pgid``, from /proc."""
    count = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            count += 1
    return count


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


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(),
    reason="counts the parent's process group from /proc",
)
class TestWorkersDieWithParent:
    def test_sigkilled_parent_leaves_no_process_behind(self, tmp_path):
        marker = tmp_path / "claimed.marks"
        path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        # Its own session: the parent's workers and resource tracker join
        # its process group, which the test counts and finally kills.
        parent = subprocess.Popen(
            [sys.executable, "-c", PARENT, str(marker)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while not marker.exists():
                assert parent.poll() is None, "parent exited on its own"
                assert time.monotonic() < deadline, "no item ran in 120 s"
                time.sleep(0.05)
            # The parent and both workers are up before the kill.
            assert _group_survivors(parent.pid) >= 3
            os.kill(parent.pid, signal.SIGKILL)  # the parent alone
            parent.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while _group_survivors(parent.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _group_survivors(parent.pid) == 0
        finally:
            # A reaped leader of an empty group may have freed its pid.
            if parent.poll() is None or _group_survivors(parent.pid):
                try:
                    os.killpg(parent.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the group exited meanwhile
            parent.wait(timeout=30)
