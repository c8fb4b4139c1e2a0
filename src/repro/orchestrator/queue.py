"""Filesystem task queue: distribute a sweep across machines.

Any number of ``python -m repro worker <queue-dir>`` daemons on machines
that share a filesystem pull tasks from one queue directory; the sweep
coordinator (:class:`QueueTransport`) enqueues the pending configs, waits
for their result files, and feeds them back through the normal
:func:`~repro.orchestrator.pool.run_sweep` bookkeeping — so cache,
ledger, ordering and aggregation behave exactly as in a local run.

The lease rules — attempts, budgets, which outcome settles a task — live
in :mod:`~repro.orchestrator.lease` and are shared with the TCP backend;
this module stores their state as files, needing nothing but POSIX rename
semantics:

* **Claiming is an atomic rename** of ``tasks/<id>.json`` into
  ``leases/<id>.json``.  Exactly one worker wins; losers get ``ENOENT``
  and move on.  The winner records itself in the lease's ``worker``
  field, which is how :meth:`FileTaskQueue.complete` tells the live lease
  holder from a worker whose lease was reclaimed.
* **Leases are heartbeats**: the owning worker re-touches its lease file
  while it executes.  A lease whose mtime is older than ``lease_ttl`` is
  presumed dead and *reclaimed* — renamed away under a private name (again
  atomic, so only one reclaimer wins) and expired by the lease rules.
* **Results are atomic too**: workers write ``results/<id>.json`` via a
  temp file + ``os.replace``, so the coordinator never reads a torn
  result.

This module also holds the worker loop both backends run
(:func:`worker_loop`) and :class:`WorkerSummary`.

Directory layout under the queue root::

    tasks/<id>.json     pending work, claimable
    leases/<id>.json    claimed work; mtime is the owner's heartbeat
    results/<id>.json   finished work (a record or an error payload)
    workers/<id>.json   live worker registrations; mtime is the heartbeat
    STOP                sentinel: workers exit at the next loop turn
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..telemetry import counter as _metric
from . import lease
from .fsutil import read_json as _read_json
from .fsutil import write_json_atomic as _write_json_atomic
from .lease import (
    DEFAULT_LEASE_TTL, DEFAULT_POLL, DEFAULT_TASK_ATTEMPTS, TASK_KIND,
)
from .transport import TransportItem, execute_payload

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POLL",
    "STATUS_FILENAME",
    "FileTaskQueue",
    "QueueTransport",
    "WorkerSummary",
    "run_worker",
]

PathLike = Union[str, Path]
ProgressFn = Callable[[str, Dict[str, Any]], None]

WORKER_KIND = "sweep-worker"
STOP_FILENAME = "STOP"
#: Coordinator-published live status snapshot (atomic write, JSON).
STATUS_FILENAME = "status.json"


def _touch(path: Path) -> None:
    try:
        os.utime(path, None)
    except OSError:
        pass  # raced a reclaim/cleanup; the owner will find out shortly


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass  # already gone: another process settled or reclaimed it


@dataclass
class WorkerSummary:
    """What one worker did over its lifetime, for the shutdown summary.

    Returned by :func:`run_worker` and
    :func:`~repro.orchestrator.net.run_tcp_worker`; ``worker_id`` defaults
    to ``<host>-<pid>``.
    """

    worker_id: Optional[str] = None
    processed: int = 0
    done: int = 0
    failed: int = 0
    retried: int = 0
    heartbeats: int = 0
    reconnects: int = 0
    replayed: int = 0
    #: Whether the most recent task ended in a *terminal* failure (a retry
    #: that stays on the queue does not count) — the CLI exits nonzero on it.
    last_task_failed: bool = False

    def __post_init__(self) -> None:
        if not self.worker_id:
            self.worker_id = f"{socket.gethostname()}-{os.getpid()}"

    def describe(self) -> str:
        """The one-line shutdown summary the worker CLI logs."""
        line = (f"worker {self.worker_id} done: "
                f"{self.processed} task(s) "
                f"({self.done} ok, {self.failed} failed, "
                f"{self.retried} retried), "
                f"{self.heartbeats} heartbeat(s) sent")
        if self.reconnects or self.replayed:
            line += (f", {self.reconnects} reconnect(s), "
                     f"{self.replayed} result(s) replayed")
        return line


class FileTaskQueue:
    """The on-disk queue shared by the coordinator and the workers."""

    def __init__(self, root: PathLike,
                 lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.tasks = self.root / "tasks"
        self.leases = self.root / "leases"
        self.results = self.root / "results"
        self.workers = self.root / "workers"

    def ensure_layout(self) -> None:
        for directory in (self.tasks, self.leases, self.results, self.workers):
            directory.mkdir(parents=True, exist_ok=True)

    # -- identities ---------------------------------------------------------

    task_id = staticmethod(lease.task_id)

    def task_path(self, task_id: str) -> Path:
        return self.tasks / f"{task_id}.json"

    def lease_path(self, task_id: str) -> Path:
        return self.leases / f"{task_id}.json"

    def result_path(self, task_id: str) -> Path:
        return self.results / f"{task_id}.json"

    # -- coordinator side ---------------------------------------------------

    def enqueue(self, task_id: str, config_dict: Dict[str, Any], digest: str,
                max_attempts: Optional[int] = DEFAULT_TASK_ATTEMPTS,
                options: Optional[Dict[str, Any]] = None) -> str:
        """Make ``task_id`` runnable; returns how it was handled.

        ``"result-exists"``: a previous (identical) run already finished it
        and the result can be consumed immediately.  ``"pending"``: some
        coordinator already enqueued it and it is waiting or running.
        ``"enqueued"``: a fresh task file was written.  A lingering *failed*
        result is deleted and retried — failures are never treated as
        cached.  ``options`` rides along in the task file
        (:func:`~repro.orchestrator.lease.new_task`).
        """
        self.ensure_layout()
        result = self.result_path(task_id)
        payload = _read_json(result)
        if payload is not None and "record" in payload:
            return "result-exists"
        if payload is not None:
            _unlink(result)
        if self.task_path(task_id).exists() or self.lease_path(task_id).exists():
            return "pending"
        _write_json_atomic(self.task_path(task_id), lease.new_task(
            task_id, config_dict, digest, max_attempts, options, time.time()))
        _metric("queue.enqueued").inc()
        return "enqueued"

    def live_workers(self, ttl: Optional[float] = None) -> List[str]:
        """Ids of workers whose registration heartbeat is fresh."""
        ttl = self.lease_ttl if ttl is None else float(ttl)
        now = time.time()
        alive = []
        for path in self.workers.glob("*.json"):
            try:
                if now - path.stat().st_mtime <= ttl:
                    alive.append(path.stem)
            except OSError:
                continue
        return sorted(alive)

    def status_snapshot(self, window: float = 60.0,
                        now: Optional[float] = None) -> Dict[str, Any]:
        """A JSON-ready snapshot of the board for ``repro status``.

        Computed purely from directory listings and mtimes, so any process
        that can see the queue directory — coordinator, worker, or an
        operator's shell — gets the same answer without coordination.
        ``window`` bounds the rolling-throughput estimate (results whose
        mtime falls inside the last ``window`` seconds).
        """
        now = time.time() if now is None else now
        self.ensure_layout()
        pending = sum(1 for _ in self.tasks.glob("*.json"))
        leases: List[Tuple[str, Optional[str], float]] = []
        for path in self.leases.glob("*.json"):
            try:
                beat = path.stat().st_mtime
            except OSError:
                continue  # completed or reclaimed while we looked
            leases.append((path.stem, (_read_json(path) or {}).get("worker"),
                           beat))
        done = 0
        completions: List[float] = []
        for path in self.results.glob("*.json"):
            done += 1
            try:
                completions.append(path.stat().st_mtime)
            except OSError:
                continue
        workers: List[Dict[str, Any]] = []
        for path in sorted(self.workers.glob("*.json")):
            try:
                beat_age = max(0.0, now - path.stat().st_mtime)
            except OSError:
                continue
            payload = _read_json(path) or {}
            workers.append({"id": path.stem,
                            "heartbeat_age": round(beat_age, 3),
                            "host": payload.get("host"),
                            "pid": payload.get("pid")})
        return {
            "kind": "queue-status",
            "root": str(self.root),
            "lease_ttl": self.lease_ttl,
            "board": lease.board(now, pending, done, leases, completions,
                                 window),
            "workers": workers,
            "stop": (self.root / STOP_FILENAME).exists(),
        }

    # -- worker side --------------------------------------------------------

    def claim(self, worker_id: Optional[str] = None
              ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Atomically claim the lowest-id pending task, or ``None``.

        When ``worker_id`` is given, the lease file is rewritten with a
        ``"worker"`` field so status readers can attribute the lease to
        its owner.
        """
        for task_path in sorted(self.tasks.glob("*.json")):
            lease_path = self.leases / task_path.name
            try:
                os.rename(task_path, lease_path)
            except OSError:
                continue  # another worker won the rename
            # rename() preserves the task file's mtime; refresh it so the
            # lease clock starts at claim time, not enqueue time —
            # otherwise a task that waited longer than the TTL would be
            # born stale and reclaimed out from under its live owner.
            _touch(lease_path)
            payload = _read_json(lease_path)
            if payload is None or payload.get("kind") != TASK_KIND:
                self._fail_unreadable(task_path.stem, lease_path)
                continue
            if worker_id is not None:
                payload["worker"] = worker_id
                # The atomic rewrite also refreshes the lease mtime.
                _write_json_atomic(lease_path, payload)
            _metric("queue.claims").inc()
            return task_path.stem, payload
        return None

    def touch_lease(self, task_id: str,
                    worker_id: Optional[str] = None) -> bool:
        """Heartbeat: prove the lease owner is still alive.  ``False`` if
        ``worker_id`` no longer holds the lease: a reclaimed worker must
        not keep the new holder's lease fresh."""
        held = _read_json(self.lease_path(task_id))
        if held is None or held.get("worker") != worker_id:
            return False
        _touch(self.lease_path(task_id))
        _metric("queue.heartbeats").inc()
        return True

    def complete(self, worker_id: str, task_id: str,
                 outcome: Dict[str, Any]) -> str:
        """Settle a worker's ``execute_payload`` outcome.

        Returns ``"done"`` (result published), ``"retry"`` (task
        re-enqueued with its attempt bumped) or ``"ignored"``, as decided
        by :func:`~repro.orchestrator.lease.settle`.  ``worker_id`` holds
        the lease when the lease file's ``worker`` field names it.
        """
        held = _read_json(self.lease_path(task_id))
        owns = held is not None and held.get("worker") == worker_id
        task = held or _read_json(self.task_path(task_id))
        status, result, retry = lease.settle(
            task_id, task, worker_id, owns, outcome,
            _read_json(self.result_path(task_id)))
        if retry is not None:
            # Set the lease aside before re-enqueueing: a claimer may rename
            # the new task file onto leases/<id>.json at once, and its lease
            # must survive.  A crash in between leaves a ``.reclaim`` file
            # that reclaim_stale() recovers.
            private = self._set_aside(self.lease_path(task_id), task_id)
            if private is None:
                return "ignored"  # reclaimed meanwhile; the expiry counted
            _metric("queue.retries").inc()
            _write_json_atomic(self.task_path(task_id), retry)
            _unlink(private)
            return status
        if result is not None:
            self._publish(task_id, result)
            _unlink(self.task_path(task_id))
        if result is not None or owns:
            _unlink(self.lease_path(task_id))
        return status

    def _set_aside(self, path: Path, task_id: str) -> Optional[Path]:
        """Atomically rename ``path`` to a fresh private ``.reclaim`` name;
        ``None`` if another process moved it first."""
        private = self.leases / f".{task_id}.{uuid.uuid4().hex}.reclaim"
        try:
            os.rename(path, private)
        except OSError:
            return None
        return private

    def _publish(self, task_id: str, payload: Dict[str, Any]) -> None:
        """Write a result file, never over a published success (a
        concurrent settle of the same task may have just written one)."""
        payload.setdefault("kind", lease.RESULT_KIND)
        payload.setdefault("id", task_id)
        existing = _read_json(self.result_path(task_id))
        if existing is None or "record" not in existing:
            _write_json_atomic(self.result_path(task_id), payload)
        _metric("queue.completes").inc()

    def _fail_unreadable(self, task_id: str, path: Path) -> None:
        """An unreadable task must still terminate: publishing a failed
        result (rather than silently dropping the file) keeps the
        coordinator from waiting on it forever."""
        self._publish(task_id, {
            "error": f"unreadable task payload for {task_id!r}",
            "attempt": 1,
        })
        _unlink(path)

    # -- maintenance: long-lived queue directories ---------------------------

    def gc(self, ttl: float = 24 * 3600.0, now: Optional[float] = None,
           reclaim: bool = True) -> Dict[str, int]:
        """Prune a long-lived queue directory; returns per-category counts.

        * stale **leases** are first recovered through
          :meth:`reclaim_stale` (re-enqueued, or turned into failed results
          when out of attempts) so no work is lost;
        * **results** — completed and failed task files alike — older than
          ``ttl`` seconds are deleted (a coordinator consumes its results
          within one sweep, so anything older belongs to a finished
          campaign);
        * dead **worker registrations** (no heartbeat for ``ttl`` seconds)
          are deleted;
        * a leftover ``STOP`` sentinel older than ``ttl`` is removed so the
          directory can serve a new campaign.

        Run it between campaigns, or periodically with a ``ttl`` larger
        than any sweep's duration — deleting a result file a live
        coordinator still waits for would make it re-enqueue the task.
        """
        now = time.time() if now is None else now
        self.ensure_layout()
        counts = {"reclaimed": 0, "results": 0, "workers": 0, "stop": 0}
        if reclaim:
            counts["reclaimed"] = len(self.reclaim_stale(now))
        for category, directory in (("results", self.results),
                                    ("workers", self.workers)):
            for path in directory.glob("*.json"):
                try:
                    if now - path.stat().st_mtime <= ttl:
                        continue
                    path.unlink()
                except OSError:
                    continue  # raced another janitor / consumer
                counts[category] += 1
        stop = self.root / STOP_FILENAME
        try:
            if stop.exists() and now - stop.stat().st_mtime > ttl:
                stop.unlink()
                counts["stop"] = 1
        except OSError:
            pass
        return counts

    # -- shared: stale-lease recovery ---------------------------------------

    def reclaim_stale(self, now: Optional[float] = None) -> List[str]:
        """Recover leases whose owner stopped heartbeating.

        Both workers and the coordinator call this opportunistically, so a
        sweep finishes even if the machine that claimed a task died.  Each
        reclaim applies :func:`~repro.orchestrator.lease.expire`.
        ``.reclaim`` files orphaned by a reclaimer that
        itself died mid-recovery are swept by the same pass, so a task can
        never be stranded under a name nothing scans.
        """
        now = time.time() if now is None else now
        reclaimed: List[str] = []
        candidates = list(self.leases.glob("*.json"))
        candidates += list(self.leases.glob(".*.reclaim"))
        for path in candidates:
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # completed or reclaimed while we looked
            if age <= self.lease_ttl:
                continue
            task_id = self._reclaim_one(path)
            if task_id is not None:
                reclaimed.append(task_id)
                _metric("queue.reclaims").inc()
        return reclaimed

    def _reclaim_one(self, path: Path) -> Optional[str]:
        """Recover one stale lease (or orphaned reclaim file).

        Crash-safe ordering: the stale file is first renamed to a fresh
        private name (atomic — exactly one reclaimer wins, and the file
        keeps a scannable ``.reclaim`` suffix in case *this* process dies
        next), then the re-enqueued task or terminal failure is written,
        and only then is the private file removed.
        """
        if path.suffix == ".json":
            fallback_id = path.stem
        else:  # ".<task-id>.<nonce>.reclaim" left by a dead reclaimer
            fallback_id = path.name.lstrip(".").rsplit(".", 2)[0]
        private = self._set_aside(path, fallback_id)
        if private is None:
            return None  # lost the race to another reclaimer / completion
        payload = _read_json(private)
        if payload is None or payload.get("kind") != TASK_KIND:
            self._fail_unreadable(fallback_id, private)
            return fallback_id
        task_id = payload.get("id") or fallback_id
        # If the task turned out to be alive after all — its result was
        # published, it was re-enqueued, or it is leased again — recovering
        # would resurrect finished work; just drop the stale copy.
        alive = (self.task_path(task_id).exists()
                 or self.lease_path(task_id).exists())
        result = _read_json(self.result_path(task_id))
        if alive or (result is not None and "record" in result):
            _unlink(private)
            return None
        task, failure = lease.expire(task_id, payload)
        if failure is None:
            _write_json_atomic(self.task_path(task_id), task)
        else:
            self._publish(task_id, failure)
        _unlink(private)
        return task_id


# ---------------------------------------------------------------------------
# The worker loop both backends run
# ---------------------------------------------------------------------------

def worker_loop(backend: Any, summary: WorkerSummary,
                max_idle: Optional[float], max_tasks: Optional[int],
                progress: Optional[ProgressFn],
                checkpoint_dir: Optional[PathLike],
                checkpoint_every: Optional[int]) -> WorkerSummary:
    """Claim a task, execute it under a heartbeat thread, complete it.

    ``backend`` adapts one store (``_QueueWorker``, ``net._TcpWorker``);
    its ``claim()`` waits before returning ``None``.  ``checkpoint_dir`` /
    ``checkpoint_every`` override the task's own checkpoint options.
    ``progress(task_id, result)`` gets the task's
    :func:`~repro.orchestrator.lease.result_payload` plus the ``status``
    its store settled it with.
    """
    overrides: Dict[str, Any] = {}
    if checkpoint_dir is not None:
        overrides["checkpoint_dir"] = str(checkpoint_dir)
    if checkpoint_every is not None:
        overrides["checkpoint_every"] = int(checkpoint_every)
    idle_since = time.monotonic()
    try:
        # --max-tasks waits for an undelivered result to be re-sent, or
        # the finished work would be thrown away (--max-idle still bounds
        # how long redelivery is tried).
        while (max_tasks is None or summary.processed < max_tasks
               or backend.unsent is not None):
            claimed = backend.claim()
            if backend.stopped:
                break
            if claimed is None:
                # Time spent unable to reach the store counts as idle.
                if (max_idle is not None
                        and time.monotonic() - idle_since >= max_idle):
                    break
                continue
            task_id, task = claimed
            stop_beat = threading.Event()

            def beat() -> None:
                while not stop_beat.wait(backend.heartbeat_every):
                    try:
                        backend.heartbeat(task_id)
                    except (OSError, RuntimeError):
                        return  # the completion that follows finds out
                    summary.heartbeats += 1

            beater = threading.Thread(target=beat, daemon=True)
            beater.start()
            try:
                outcome = execute_payload(task.get("config", {}), {
                    **(task.get("options") or {}), **overrides} or None)
            finally:
                stop_beat.set()
                beater.join()
            status = backend.complete(task_id, outcome)
            result = dict(lease.result_payload(
                task_id, task, summary.worker_id,
                int(task.get("attempt", 0)) + 1, outcome), status=status)
            if "record" in result:
                summary.done += 1
            elif status == "retry":
                summary.retried += 1
            else:
                summary.failed += 1
            # Only a failure this worker will not see retried is terminal;
            # the CLI exits nonzero on it.
            summary.last_task_failed = "error" in result and status != "retry"
            summary.processed += 1
            # The idle clock restarts when a task *finishes*: a long task
            # must never count toward --max-idle.
            idle_since = time.monotonic()
            if progress is not None:
                progress(task_id, result)
    finally:
        backend.close()
    return summary


class _QueueWorker:
    """The queue side of :func:`worker_loop`: a registration file whose
    mtime is the worker's heartbeat, the ``STOP`` file, and periodic
    reclaiming of dead workers' leases."""

    unsent = None  # results reach the queue directory or raise

    def __init__(self, queue: FileTaskQueue, summary: WorkerSummary,
                 poll: float) -> None:
        self.queue = queue
        self.summary = summary
        self.poll = poll
        self.stopped = False
        self.heartbeat_every = lease.heartbeat_interval(queue.lease_ttl)
        self.reclaim_every = max(queue.lease_ttl / 4.0, poll)
        self.last_beat = self.last_reclaim = float("-inf")
        self.registration = queue.workers / f"{summary.worker_id}.json"
        _write_json_atomic(self.registration, {
            "kind": WORKER_KIND, "id": summary.worker_id,
            "host": socket.gethostname(), "pid": os.getpid(),
            "started_at": time.time()})

    def claim(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        if (self.queue.root / STOP_FILENAME).exists():
            self.stopped = True
            return None
        now = time.monotonic()
        if now - self.last_beat >= self.heartbeat_every:
            _touch(self.registration)
            self.summary.heartbeats += 1
            self.last_beat = now
        if now - self.last_reclaim >= self.reclaim_every:
            self.queue.reclaim_stale()
            self.last_reclaim = now
        claimed = self.queue.claim(self.summary.worker_id)
        if claimed is None:
            time.sleep(self.poll)
        return claimed

    def heartbeat(self, task_id: str) -> None:
        self.queue.touch_lease(task_id, self.summary.worker_id)
        _touch(self.registration)

    def complete(self, task_id: str, outcome: Dict[str, Any]) -> str:
        return self.queue.complete(self.summary.worker_id, task_id, outcome)

    def close(self) -> None:
        _unlink(self.registration)


def run_worker(queue_dir: PathLike,
               worker_id: Optional[str] = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               poll: float = DEFAULT_POLL,
               max_idle: Optional[float] = None,
               max_tasks: Optional[int] = None,
               progress: Optional[ProgressFn] = None,
               checkpoint_dir: Optional[PathLike] = None,
               checkpoint_every: Optional[int] = None,
               ) -> WorkerSummary:
    """The ``python -m repro worker <queue-dir>`` daemon: runs
    :func:`worker_loop` against the queue and returns its summary.

    A task that raises is retried (by this or any other worker) until its
    attempt budget is spent.  The worker exits on a ``STOP`` file in the
    queue root, after ``max_idle`` seconds without work, or after
    ``max_tasks`` tasks.
    """
    queue = FileTaskQueue(queue_dir, lease_ttl=lease_ttl)
    queue.ensure_layout()
    summary = WorkerSummary(worker_id)
    return worker_loop(_QueueWorker(queue, summary, poll), summary,
                       max_idle, max_tasks, progress, checkpoint_dir,
                       checkpoint_every)


def await_workers(transport: Any, live_workers: Callable[[], List[str]],
                  where: str, command: str) -> None:
    """Wait up to ``transport.worker_timeout`` seconds for
    ``transport.workers_expected`` live workers, so a sweep against an
    empty backend fails fast instead of hanging silently."""
    deadline = time.monotonic() + transport.worker_timeout
    while True:
        alive = live_workers()
        if len(alive) >= transport.workers_expected:
            return
        if time.monotonic() >= deadline:
            raise RuntimeError(
                f"only {len(alive)} of {transport.workers_expected} "
                f"expected worker(s) {where} within "
                f"{transport.worker_timeout:.0f}s — start them with "
                f"'{command}'")
        time.sleep(min(transport.poll, 0.5))


# ---------------------------------------------------------------------------
# The coordinator-side transport
# ---------------------------------------------------------------------------

class QueueTransport:
    """Execute pending configs through a shared filesystem task queue.

    Construct with the queue directory the workers watch and pass to
    :func:`~repro.orchestrator.pool.run_sweep` (or use
    ``repro sweep --transport queue --queue-dir DIR``).  ``workers_expected``
    makes the sweep wait (up to ``worker_timeout`` seconds) until that many
    live workers are registered before enqueueing, so a sweep against an
    empty queue directory fails fast instead of hanging silently;
    ``timeout`` bounds the whole wait for results.
    """

    name = "queue"

    def __init__(self, queue_dir: PathLike,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 poll: float = DEFAULT_POLL,
                 max_attempts: Optional[int] = DEFAULT_TASK_ATTEMPTS,
                 workers_expected: int = 0,
                 worker_timeout: float = 60.0,
                 timeout: Optional[float] = None) -> None:
        self.queue_dir = Path(queue_dir)
        self.lease_ttl = float(lease_ttl)
        self.poll = float(poll)
        self.max_attempts = max_attempts
        self.workers_expected = int(workers_expected)
        self.worker_timeout = float(worker_timeout)
        self.timeout = timeout

    def run(self, items: Sequence[TransportItem],
            options: Optional[Dict[str, Any]] = None
            ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        queue = FileTaskQueue(self.queue_dir, lease_ttl=self.lease_ttl)
        queue.ensure_layout()
        if self.workers_expected > 0:
            await_workers(self, queue.live_workers,
                          f"registered under {queue.root}",
                          f"python -m repro worker {queue.root}")
        pending: Dict[str, int] = {}
        for index, config, digest in items:
            task_id = queue.task_id(index, digest)
            queue.enqueue(task_id, config.to_dict(), digest,
                          max_attempts=self.max_attempts, options=options)
            pending[task_id] = index
        total = len(pending)

        def publish_status() -> None:
            """Drop a live snapshot next to the queue for ``repro status``.

            Best-effort: a sweep must never die because the status file
            could not be written.
            """
            try:
                snapshot = queue.status_snapshot()
                snapshot["coordinator"] = {
                    "enqueued": total,
                    "collected": total - len(pending),
                    "outstanding": len(pending),
                    "published_at": time.time(),
                }
                _write_json_atomic(self.queue_dir / STATUS_FILENAME, snapshot)
            except OSError:
                pass

        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        reclaim_every = max(self.lease_ttl / 4.0, self.poll)
        last_reclaim = float("-inf")
        while pending:
            if time.monotonic() - last_reclaim >= reclaim_every:
                queue.reclaim_stale()
                publish_status()
                last_reclaim = time.monotonic()
            progressed = False
            # One directory listing per poll instead of one stat per
            # pending task — kinder to the network filesystems this
            # transport is designed for.
            try:
                ready = {entry[:-5] for entry in os.listdir(queue.results)
                         if entry.endswith(".json")}
            except OSError:
                ready = set()
            for task_id in sorted(pending.keys() & ready):
                payload = _read_json(queue.result_path(task_id))
                if payload is None:
                    continue
                index = pending.pop(task_id)
                progressed = True
                yield index, payload
            if not pending:
                publish_status()
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"queue sweep timed out after {self.timeout}s with "
                    f"{len(pending)} task(s) unfinished "
                    f"(live workers: {queue.live_workers() or 'none'})")
            if not progressed:
                time.sleep(self.poll)
