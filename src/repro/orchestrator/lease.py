"""Lease rules shared by the two distributed sweep backends.

The filesystem queue (:mod:`~repro.orchestrator.queue`) keeps its tasks in
a directory changed through atomic renames, the TCP coordinator
(:mod:`~repro.orchestrator.net`) in memory behind a lock; both apply the
transitions defined here.  A task is *pending* (claimable), *leased* (a
worker runs it and heartbeats the lease) or *done* (a result is
published).  As in Gray & Cheriton's leases (SOSP 1989), a lease whose
holder stops heartbeating for ``lease_ttl`` seconds expires.  Every
execution and every expiry consumes one attempt; a task out of attempts
becomes a failed result instead of looping forever.

Everything here is pure — no I/O, no locks, no clock reads — so each
store applies the rules under its own concurrency control.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..telemetry import summarize_ages

__all__ = ["DEFAULT_LEASE_TTL", "DEFAULT_POLL", "DEFAULT_TASK_ATTEMPTS",
           "RESULT_KIND", "TASK_KIND", "board", "expire",
           "heartbeat_interval", "new_task", "result_payload", "settle",
           "task_id"]

TASK_KIND = "sweep-task"
RESULT_KIND = "sweep-task-result"
#: Seconds without a heartbeat after which a lease is presumed dead.
DEFAULT_LEASE_TTL = 60.0
#: Seconds between idle polls (workers) and result scans (coordinators).
DEFAULT_POLL = 0.2
#: Default per-task execution budget (first try included).
DEFAULT_TASK_ATTEMPTS = 3

Payload = Dict[str, Any]
#: ``(status, result, task)``: ``"done"`` publishes ``result``, ``"retry"``
#: puts ``task`` (its attempt bumped) back to pending, ``"ignored"``
#: changes nothing.
Settlement = Tuple[str, Optional[Payload], Optional[Payload]]


def task_id(index: int, digest: str) -> str:
    """Stable id: the spec index keeps claim order ≈ spec order, the
    digest makes concurrent coordinators running the same spec share
    (rather than duplicate) tasks."""
    return f"{index:06d}-{digest}"


def _budget(value: Any) -> Optional[int]:
    """Normalise a retry budget: ``None`` / ``<= 0`` mean unlimited."""
    if value is None:
        return None
    budget = int(value)
    return budget if budget > 0 else None


def heartbeat_interval(lease_ttl: float) -> float:
    """Seconds between a lease holder's heartbeats: four per TTL, at
    least one every 5 s, at most one every 50 ms."""
    return max(min(lease_ttl / 4.0, 5.0), 0.05)


def new_task(task_id: str, config: Payload, digest: str,
             max_attempts: Optional[int], options: Optional[Payload],
             enqueued_at: float) -> Payload:
    """A freshly enqueued task.  ``options`` (``checkpoint_every`` /
    ``checkpoint_dir``) rides along, so any worker — including one that
    resumes a task whose first holder died — runs it the same way."""
    task: Payload = {
        "kind": TASK_KIND,
        "id": task_id,
        "digest": digest,
        "config": config,
        "attempt": 0,
        "max_attempts": _budget(max_attempts),
        "enqueued_at": enqueued_at,
    }
    if options:
        task["options"] = dict(options)
    return task


def result_payload(task_id: str, task: Payload, worker_id: Optional[str],
                   attempt: int, outcome: Payload) -> Payload:
    """The result of one execution (a record or an error), or of an expiry
    (``worker_id`` ``None``)."""
    payload: Payload = {
        "kind": RESULT_KIND,
        "id": task_id,
        "digest": task.get("digest", ""),
        "config": task.get("config", outcome.get("config", {})),
        "elapsed": outcome.get("elapsed", 0.0),
        "worker": worker_id,
        "attempt": attempt,
    }
    if "resumed_round" in outcome:
        payload["resumed_round"] = outcome["resumed_round"]
    if "record" in outcome:
        payload["record"] = outcome["record"]
    else:
        payload["error"] = outcome.get("error", "unknown error")
    return payload


def settle(task_id: str, task: Optional[Payload], worker_id: str,
           owns: bool, outcome: Payload,
           published: Optional[Payload]) -> Settlement:
    """Apply a worker's ``execute_payload`` outcome to its task.

    ``task`` is ``None`` when the store does not know the task (say, after
    a coordinator restart); ``owns`` says whether ``worker_id`` still
    holds the lease; ``published`` is the result already stored.

    * A published success is final: later outcomes are ignored.
    * A success is published, whoever ran it; so is a success for an
      unknown task, while a failure for one is dropped.
    * A failure from a worker that no longer holds the lease is ignored:
      the expiry that took the lease consumed that attempt, and the live
      holder's run must not be disturbed.
    * A failure that reaches the budget is published; any other goes back
      to pending with ``attempt + 1``.
    """
    if published is not None and "record" in published:
        return "ignored", None, None
    if task is None:
        if "record" in outcome:
            return "done", result_payload(
                task_id, {}, worker_id, 1, outcome), None
        return "ignored", None, None
    if "record" not in outcome and not owns:
        return "ignored", None, None
    attempt = int(task.get("attempt", 0)) + 1
    budget = _budget(task.get("max_attempts", DEFAULT_TASK_ATTEMPTS))
    if "record" in outcome or (budget is not None and attempt >= budget):
        return "done", result_payload(
            task_id, task, worker_id, attempt, outcome), None
    return "retry", None, dict(task, attempt=attempt)


def expire(task_id: str, task: Payload) -> Tuple[Payload, Optional[Payload]]:
    """Apply a stale lease: returns ``(task, failure)``.  The expiry
    consumes one attempt; ``failure`` is the result to publish when that
    exhausts the budget, else ``None`` and ``task`` goes back to pending."""
    attempt = int(task.get("attempt", 0)) + 1
    task = dict(task, attempt=attempt)
    budget = _budget(task.get("max_attempts", DEFAULT_TASK_ATTEMPTS))
    if budget is None or attempt < budget:
        return task, None
    return task, result_payload(task_id, task, None, attempt, {
        "error": (f"worker lease expired and the task is out of attempts "
                  f"({attempt}/{budget})")})


def board(now: float, pending: int, done: int,
          leases: Sequence[Tuple[str, Optional[str], float]],
          completions: Iterable[float], window: float) -> Payload:
    """The ``board`` block of the status document both backends publish.

    ``leases`` holds ``(task id, worker, since)`` per lease, and
    ``completions`` the times results were published; ``window`` bounds
    the rolling-throughput estimate.  All times are on ``now``'s clock.
    """
    rows: List[Payload] = [
        {"id": lease_id, "worker": worker,
         "age": round(max(0.0, now - since), 3)}
        for lease_id, worker, since in sorted(leases, key=lambda row: row[0])]
    completed = sum(1 for stamp in completions if now - stamp <= window)
    return {
        "pending": pending,
        "leased": len(rows),
        "done": done,
        "lease_ages": summarize_ages([row["age"] for row in rows]),
        "leases": rows,
        "throughput": {
            "window": window,
            "completed": completed,
            "per_second": round(completed / window, 4) if window > 0 else 0.0,
        },
    }
