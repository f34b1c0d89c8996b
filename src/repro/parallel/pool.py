"""Spawn-safe process pool with crash containment.

The pool is deliberately *parent-driven*: each worker owns a private task
queue and the parent dispatches exactly one item to an idle worker at a
time.  That means the parent always knows which item a worker holds, so a
worker that segfaults, is OOM-killed, or wedges past ``item_timeout`` is
attributed to exactly one item — no guessing against a shared queue.

Failure handling mirrors :mod:`repro.faults.reliability`:

* failed items are retried with exponential backoff
  (``backoff_base * 2**(attempts-1)``, capped at ``backoff_cap``) up to
  ``max_retries`` extra attempts, then quarantined with their full error
  history instead of sinking the sweep;
* dead workers are respawned up to ``max_respawns`` times; when every
  worker is dead and the respawn budget is spent, remaining items are
  quarantined and the pool shuts down cleanly;
* per-slot EWMA health (success -> 1, failure -> 0) is reported so a
  flaky host shows up in the sweep report, not just in lost wall-clock.

Determinism is *not* this module's job: work items are hermetic (they
carry their own seeds — see :mod:`repro.parallel.seeds`), so the pool may
schedule them in any order onto any worker.  Results are keyed by item
index and returned in submission order.

Workers pickle their result *before* enqueueing it; an unpicklable
result therefore surfaces as an ordinary item error instead of crashing
the queue's feeder thread with no diagnostics.

Results travel over a *per-worker pipe*, never a shared queue: a
``multiprocessing.Queue`` shared by several writers serializes them
through a cross-process write lock, and a worker killed mid-send (crash
item, hang terminate, OOM) dies *holding* that lock — every surviving
worker's results then silently stop flowing and the pool wedges.  With
one single-writer pipe per worker there is no lock to strand, and a
dying worker's torn final frame poisons only its own pipe, which is
discarded at respawn.  The parent reads the pipes non-blockingly and
reassembles length-prefixed frames itself, so a torn tail merely waits
in the buffer instead of blocking the scheduling loop.
"""

from __future__ import annotations

import importlib
import os
import pickle
import struct
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import multiprocessing as mp
from multiprocessing import connection as mp_connection

__all__ = [
    "PoolConfig",
    "ItemFailure",
    "PoolReport",
    "run_items",
    "resolve_callable",
]

#: EWMA smoothing for per-worker health, matching the reliability tracker.
_HEALTH_ALPHA = 0.3

#: How long the parent blocks on the result queue per loop iteration.
_DRAIN_TIMEOUT = 0.05


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs for :func:`run_items`.

    ``workers <= 1`` executes items in-process (no subprocesses at all) —
    hermetic items make this bit-identical to the pooled path, and it is
    the debuggable baseline the differential matrix compares against.
    """

    workers: int = 1
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_respawns: int = 4
    item_timeout: Optional[float] = None
    startup_grace: float = 30.0
    mp_context: str = "spawn"

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.item_timeout is not None and self.item_timeout <= 0:
            raise ValueError(
                f"item_timeout must be positive, got {self.item_timeout}"
            )
        if self.startup_grace < 0:
            raise ValueError(
                f"startup_grace must be >= 0, got {self.startup_grace}"
            )


@dataclass
class ItemFailure:
    """One quarantined item: every error message from every attempt."""

    index: int
    attempts: int
    errors: List[str] = field(default_factory=list)


@dataclass
class PoolReport:
    """Outcome of one :func:`run_items` call.

    ``results[i]`` is item ``i``'s return value, or ``None`` if the item
    was quarantined (look it up in ``quarantined`` by index) — or, when
    ``interrupted`` is True, never ran because a graceful drain
    (``should_stop``) stopped dispatch first.
    """

    results: List[Any]
    quarantined: List[ItemFailure]
    retries: int = 0
    respawns: int = 0
    worker_health: Dict[int, float] = field(default_factory=dict)
    elapsed: float = 0.0
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.quarantined and not self.interrupted


def resolve_callable(path: str) -> Callable[[Any], Any]:
    """Resolve ``"pkg.module:attr"`` to the callable it names.

    Workers receive the *path*, not the function, so the pool never
    pickles closures — only importable module-level callables work, which
    is exactly the spawn-safety contract.
    """
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"expected 'module:attr' callable path, got {path!r}"
        )
    module = importlib.import_module(module_name)
    fn = getattr(module, attr)
    if not callable(fn):
        raise TypeError(f"{path!r} resolved to non-callable {fn!r}")
    return fn


def _worker_main(slot: int, fn_path: str, task_q, result_conn) -> None:
    """Worker loop: claim one payload at a time, execute, report.

    A ``("start", ...)`` ack is sent the moment an item is claimed so the
    parent's ``item_timeout`` clock measures *execution*, not the cold
    interpreter start a freshly spawned worker pays first — without the
    ack, a loaded host makes the pool kill healthy items as hangs.

    The result is pickled here (inside the try) so both execution errors
    and serialization errors come back as ``("error", ...)`` messages.
    ``result_conn`` is this worker's private pipe — see the module
    docstring for why results must not share a locked queue.
    """
    try:
        fn = resolve_callable(fn_path)
    except BaseException as exc:  # pragma: no cover - import failure path
        result_conn.send(("fatal", slot, -1, f"{type(exc).__name__}: {exc}"))
        return
    while True:
        msg = task_q.get()
        if msg is None:
            break
        index, payload = msg
        try:
            result_conn.send(("start", slot, index, None))
        except OSError:  # pragma: no cover - parent is gone
            return
        try:
            value = fn(payload)
            blob = pickle.dumps(value)
        except BaseException as exc:
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            reply = ("error", slot, index, detail)
        else:
            reply = ("ok", slot, index, blob)
        try:
            result_conn.send(reply)
        except OSError:  # pragma: no cover - parent is gone
            return


def _parse_frames(buf: bytearray) -> List[tuple]:
    """Split complete ``Connection`` frames off ``buf``, unpickled.

    Frames are the 4-byte big-endian length prefix ``Connection.send``
    writes (``-1`` + 8-byte length for oversized payloads).  A torn tail
    — a killed writer's final, partial frame — simply stays in the
    buffer; it can never block the reader.
    """
    msgs: List[tuple] = []
    while True:
        if len(buf) < 4:
            break
        (n,) = struct.unpack_from("!i", buf, 0)
        offset = 4
        if n == -1:
            if len(buf) < 12:
                break
            (n,) = struct.unpack_from("!Q", buf, 4)
            offset = 12
        if len(buf) < offset + n:
            break
        payload = bytes(buf[offset:offset + n])
        del buf[: offset + n]
        msgs.append(pickle.loads(payload))
    return msgs


class _Slot:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, slot_id: int):
        self.slot_id = slot_id
        self.proc: Optional[mp.process.BaseProcess] = None
        self.task_q = None
        # Parent's read end of this worker's private result pipe, plus
        # the partial-frame reassembly buffer for it.
        self.result_conn = None
        self.recv_buf = bytearray()
        self.conn_eof = False
        self.busy_index: Optional[int] = None
        self.dispatched_at: float = 0.0
        # Set by the worker's ("start", ...) ack; None while the item is
        # still queued behind worker startup.
        self.started_at: Optional[float] = None
        self.health: float = 1.0
        self.completed: int = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    @property
    def idle(self) -> bool:
        return self.alive and self.busy_index is None

    def record(self, success: bool) -> None:
        target = 1.0 if success else 0.0
        self.health += _HEALTH_ALPHA * (target - self.health)
        if success:
            self.completed += 1


def _run_inprocess(
    payloads: Sequence[Any],
    fn_path: str,
    config: PoolConfig,
    on_result: Optional[Callable[[int, Any], None]] = None,
    on_quarantine: Optional[Callable[[ItemFailure], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> PoolReport:
    """Sequential execution with the same retry/quarantine semantics."""
    fn = resolve_callable(fn_path)
    started = time.monotonic()
    results: List[Any] = [None] * len(payloads)
    quarantined: List[ItemFailure] = []
    retries = 0
    interrupted = False
    for index, payload in enumerate(payloads):
        if should_stop is not None and should_stop():
            interrupted = True
            break
        errors: List[str] = []
        for attempt in range(config.max_retries + 1):
            try:
                results[index] = fn(payload)
            except Exception as exc:
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                errors.append(detail)
                if attempt < config.max_retries:
                    retries += 1
                    time.sleep(
                        min(
                            config.backoff_base * 2**attempt,
                            config.backoff_cap,
                        )
                    )
            else:
                if on_result is not None:
                    on_result(index, results[index])
                break
        else:
            failure = ItemFailure(
                index=index, attempts=len(errors), errors=errors
            )
            quarantined.append(failure)
            if on_quarantine is not None:
                on_quarantine(failure)
    return PoolReport(
        results=results,
        quarantined=quarantined,
        retries=retries,
        respawns=0,
        worker_health={0: 1.0 if not quarantined else 0.0},
        elapsed=time.monotonic() - started,
        interrupted=interrupted,
    )


def run_items(
    payloads: Sequence[Any],
    fn_path: str = "repro.parallel.items:execute",
    config: Optional[PoolConfig] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    on_quarantine: Optional[Callable[[ItemFailure], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> PoolReport:
    """Execute ``fn(payload)`` for every payload, surviving worker crashes.

    Payloads must be picklable; ``fn_path`` names a module-level callable
    (``"module:attr"``).  Results come back in submission order.  Items
    that keep failing past the retry budget are quarantined, not raised —
    inspect :attr:`PoolReport.quarantined`.

    ``on_result(index, value)`` / ``on_quarantine(failure)`` fire in the
    *parent* the moment an item settles — the journaling hook of the
    resilience layer, called before the pool moves on so a parent death
    right after the call has already persisted the item.  ``should_stop``
    is polled between dispatches; returning True stops new dispatch,
    drains in-flight work and returns a report with ``interrupted=True``
    (undispatched items stay ``None`` without quarantine records).
    """
    config = config or PoolConfig()
    if config.workers <= 1:
        return _run_inprocess(
            payloads,
            fn_path,
            config,
            on_result=on_result,
            on_quarantine=on_quarantine,
            should_stop=should_stop,
        )
    return WorkerPool(fn_path=fn_path, config=config).run(
        payloads,
        on_result=on_result,
        on_quarantine=on_quarantine,
        should_stop=should_stop,
    )


class WorkerPool:
    """One batch of :func:`run_items` over spawned worker processes.

    Single-use: :meth:`run` spawns ``min(workers, len(payloads))``
    workers, executes the batch — retries, quarantine, respawn budget and
    timeouts as documented on :func:`run_items` — and always shuts the
    workers down before returning or raising.
    """

    def __init__(
        self,
        fn_path: str = "repro.parallel.items:execute",
        config: Optional[PoolConfig] = None,
    ):
        self.config = config or PoolConfig()
        self.fn_path = fn_path
        self._ctx = mp.get_context(self.config.mp_context)
        self._slots: List[_Slot] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        # A dead incarnation's pipe (and any torn final frame in its
        # buffer) is discarded wholesale — new worker, new pipe.
        if slot.result_conn is not None:
            try:
                slot.result_conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        slot.task_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot.slot_id, self.fn_path, slot.task_q, send_conn),
            daemon=True,
        )
        # Only a started process enters the slot: shutdown() joins every
        # slot's process, and joining one whose start() raised would
        # replace the spawn error with an AssertionError.
        proc.start()
        slot.proc = proc
        # Close the parent's copy of the write end so worker death shows
        # up as EOF on the read end.
        send_conn.close()
        slot.result_conn = recv_conn
        slot.recv_buf = bytearray()
        slot.conn_eof = False
        slot.busy_index = None

    def shutdown(self) -> None:
        """Send sentinels, join, terminate stragglers, close pipes."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.alive:
                slot.task_q.put(None)
        deadline = time.monotonic() + 2.0
        for slot in self._slots:
            if slot.proc is not None:
                slot.proc.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                if slot.proc.is_alive():
                    slot.proc.terminate()
                    slot.proc.join(timeout=1.0)
                slot.proc = None
        for slot in self._slots:
            if slot.result_conn is not None:
                try:
                    slot.result_conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                slot.result_conn = None

    # -- execution -----------------------------------------------------

    def run(
        self,
        payloads: Sequence[Any],
        on_result: Optional[Callable[[int, Any], None]] = None,
        on_quarantine: Optional[Callable[[ItemFailure], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> PoolReport:
        """Execute the batch; semantics match :func:`run_items`."""
        if self._closed:
            raise RuntimeError("WorkerPool has been shut down")
        try:
            return self._run_batch(
                payloads,
                on_result=on_result,
                on_quarantine=on_quarantine,
                should_stop=should_stop,
            )
        finally:
            self.shutdown()

    def _run_batch(
        self,
        payloads: Sequence[Any],
        on_result: Optional[Callable[[int, Any], None]],
        on_quarantine: Optional[Callable[[ItemFailure], None]],
        should_stop: Optional[Callable[[], bool]],
    ) -> PoolReport:
        config = self.config
        started = time.monotonic()
        n = len(payloads)
        results: List[Any] = [None] * n
        pending = set(range(n))
        ready: List[int] = list(range(n))
        deferred: List[tuple] = []  # (ready_time, index) — linear scan
        attempts: Dict[int, int] = {i: 0 for i in range(n)}
        errors: Dict[int, List[str]] = {i: [] for i in range(n)}
        quarantined: List[ItemFailure] = []
        retries = 0
        respawns = 0
        respawn_budget = config.max_respawns

        self._slots = [
            _Slot(i) for i in range(min(config.workers, max(n, 1)))
        ]
        for slot in self._slots:
            self._spawn(slot)
        slots = self._slots

        def fail_item(
            index: int, detail: str, slot: Optional[_Slot]
        ) -> None:
            nonlocal retries
            attempts[index] += 1
            errors[index].append(detail)
            if slot is not None:
                slot.record(False)
            if attempts[index] <= config.max_retries:
                retries += 1
                delay = min(
                    config.backoff_base * 2 ** (attempts[index] - 1),
                    config.backoff_cap,
                )
                deferred.append((time.monotonic() + delay, index))
            else:
                pending.discard(index)
                failure = ItemFailure(
                    index=index,
                    attempts=attempts[index],
                    errors=list(errors[index]),
                )
                quarantined.append(failure)
                if on_quarantine is not None:
                    on_quarantine(failure)

        def handle_message(msg: tuple) -> None:
            kind, slot_id, index, payload = msg
            slot = slots[slot_id]
            if kind == "start":
                # Guard against a stale ack from a killed worker's
                # incarnation: only the item this slot currently holds
                # may arm the execution clock.
                if slot.busy_index == index:
                    slot.started_at = time.monotonic()
            elif kind == "ok":
                results[index] = pickle.loads(payload)
                pending.discard(index)
                slot.record(True)
                slot.busy_index = None
                if on_result is not None:
                    on_result(index, results[index])
            elif kind == "error":
                slot.busy_index = None
                fail_item(index, payload, slot)
            elif kind == "fatal":
                # Worker could not even import the target callable:
                # retrying on another worker cannot help.
                raise RuntimeError(
                    f"worker failed to initialise {self.fn_path!r}: "
                    f"{payload}"
                )

        def drain_slot(slot: _Slot) -> bool:
            """Read whatever the worker's pipe holds; True if anything."""
            if slot.result_conn is None or slot.conn_eof:
                return False
            got = False
            while True:
                try:
                    if not slot.result_conn.poll(0):
                        break
                    chunk = os.read(slot.result_conn.fileno(), 1 << 16)
                except (OSError, EOFError, BrokenPipeError):
                    slot.conn_eof = True
                    break
                if not chunk:
                    slot.conn_eof = True
                    break
                got = True
                slot.recv_buf += chunk
                for msg in _parse_frames(slot.recv_buf):
                    handle_message(msg)
            return got

        stopping = False
        while pending:
            now = time.monotonic()
            if not stopping and should_stop is not None and should_stop():
                stopping = True

            # Re-arm deferred retries whose backoff has elapsed.
            if deferred and not stopping:
                due = [d for d in deferred if d[0] <= now]
                if due:
                    deferred[:] = [d for d in deferred if d[0] > now]
                    ready.extend(index for _, index in due)

            # Dispatch: one item per idle worker, parent keeps the map.
            # A drain (should_stop) freezes dispatch; in-flight items
            # still complete and are collected below.
            for slot in slots:
                if not ready or stopping:
                    break
                if slot.idle:
                    index = ready.pop(0)
                    slot.busy_index = index
                    slot.dispatched_at = now
                    slot.started_at = None
                    slot.task_q.put((index, payloads[index]))

            # Drain every worker pipe before judging liveness so a
            # worker that finished its item and *then* died is credited.
            conns = [
                s.result_conn
                for s in slots
                if s.result_conn is not None and not s.conn_eof
            ]
            if conns:
                ready_conns = set(
                    id(c)
                    for c in mp_connection.wait(
                        conns, timeout=_DRAIN_TIMEOUT
                    )
                )
            else:
                time.sleep(_DRAIN_TIMEOUT)
                ready_conns = set()
            drained_any = False
            for slot in slots:
                if (
                    slot.result_conn is not None
                    and id(slot.result_conn) in ready_conns
                ):
                    drained_any = drain_slot(slot) or drained_any

            # Liveness: a dead worker holding an item = crash on that
            # item.
            for slot in slots:
                if slot.proc is not None and not slot.proc.is_alive():
                    # Final read: results sent just before death still
                    # count (the pipe outlives the process).
                    drain_slot(slot)
                    if slot.busy_index is not None:
                        code = slot.proc.exitcode
                        index = slot.busy_index
                        slot.busy_index = None
                        fail_item(
                            index,
                            f"worker {slot.slot_id} died "
                            f"(exitcode={code}) while running item "
                            f"{index}",
                            slot,
                        )
                    if pending and respawn_budget > 0:
                        respawn_budget -= 1
                        respawns += 1
                        self._spawn(slot)
                    else:
                        slot.proc = None

            # Timeouts: a wedged worker is terminated and treated as
            # dead on the next liveness pass.  The clock runs from the
            # worker's start ack so interpreter cold start is never
            # charged to the item; until the ack arrives, only the much
            # larger ``startup_grace`` bounds a wedged spawn.
            if config.item_timeout is not None:
                for slot in slots:
                    if not (slot.alive and slot.busy_index is not None):
                        continue
                    if slot.started_at is not None:
                        timed_out = (
                            now - slot.started_at > config.item_timeout
                        )
                    else:
                        timed_out = now - slot.dispatched_at > (
                            config.item_timeout + config.startup_grace
                        )
                    if timed_out:
                        slot.proc.terminate()

            if not any(slot.alive for slot in slots):
                if respawn_budget <= 0 or not pending:
                    # Nothing can make progress: quarantine the rest.
                    for index in sorted(pending):
                        pending_errors = errors[index] + [
                            "pool exhausted: all workers dead and "
                            "respawn budget spent"
                        ]
                        failure = ItemFailure(
                            index=index,
                            attempts=attempts[index],
                            errors=pending_errors,
                        )
                        quarantined.append(failure)
                        if on_quarantine is not None:
                            on_quarantine(failure)
                    pending.clear()
                    break

            # Drain complete: every dispatched item has settled and no
            # new dispatch will happen — leave the rest for a resumed
            # run.
            if stopping and all(s.busy_index is None for s in slots):
                break

            if not drained_any and not pending:
                break

        quarantined.sort(key=lambda f: f.index)
        return PoolReport(
            results=results,
            quarantined=quarantined,
            retries=retries,
            respawns=respawns,
            worker_health={s.slot_id: s.health for s in slots},
            elapsed=time.monotonic() - started,
            interrupted=bool(pending),
        )
