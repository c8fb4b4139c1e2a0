"""One contract table for the lease rules, run against both task stores.

The filesystem queue (``FileTaskQueue``) and the TCP coordinator's board
(``TaskBoard``) apply the same rules from ``repro.orchestrator.lease``.
Each case below drives both stores through the same steps — enqueue,
claim, age a lease, reclaim, complete, read the result — so the two
backends cannot drift apart again.  A lease is aged with ``os.utime`` on
the queue and with the injectable ``now=`` clock on the board.
"""

import json
import os
import time

import pytest

from repro.orchestrator import lease
from repro.orchestrator.net import TaskBoard
from repro.orchestrator.queue import FileTaskQueue

TTL = 30.0
CONFIG = {"algorithm": "dle", "family": "hexagon", "size": 2, "seed": 0}


def _id(index):
    return lease.task_id(index, f"digest{index}")


class QueueStore:
    def __init__(self, tmp_path):
        self.queue = FileTaskQueue(tmp_path / "q", lease_ttl=TTL)
        self.queue.ensure_layout()

    def enqueue(self, index, **kwargs):
        return self.queue.enqueue(_id(index), dict(CONFIG),
                                  f"digest{index}", **kwargs)

    def claim(self, worker):
        claimed = self.queue.claim(worker)
        return None if claimed is None else claimed[1]

    def age(self, task_id):
        stale = time.time() - 4 * TTL
        os.utime(self.queue.lease_path(task_id), (stale, stale))

    def reclaim(self):
        return self.queue.reclaim_stale()

    def heartbeat(self, worker, task_id):
        return self.queue.touch_lease(task_id, worker)

    def complete(self, worker, task_id, outcome):
        return self.queue.complete(worker, task_id, outcome)

    def result(self, task_id):
        path = self.queue.result_path(task_id)
        return json.loads(path.read_text()) if path.exists() else None

    def pending(self):
        return len(list(self.queue.tasks.glob("*.json")))

    def lease_owner(self, task_id):
        path = self.queue.lease_path(task_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())["worker"]


class BoardStore:
    def __init__(self, tmp_path):
        self.board = TaskBoard(lease_ttl=TTL)
        self.now = 1000.0

    def enqueue(self, index, **kwargs):
        return self.board.enqueue(_id(index), dict(CONFIG),
                                  f"digest{index}", **kwargs)

    def claim(self, worker):
        return self.board.claim(worker, now=self.now)

    def age(self, task_id):
        self.now += 4 * TTL

    def reclaim(self):
        return self.board.reclaim_stale(now=self.now)

    def heartbeat(self, worker, task_id):
        return self.board.heartbeat(worker, task_id, now=self.now)

    def complete(self, worker, task_id, outcome):
        return self.board.complete(worker, task_id, outcome)

    def result(self, task_id):
        found = self.board.collect([task_id])
        return found[0] if found else None

    def pending(self):
        return self.board.stats(now=self.now)["pending"]

    def lease_owner(self, task_id):
        for row in self.board.stats(now=self.now)["leases"]:
            if row["id"] == task_id:
                return row["worker"]
        return None


@pytest.fixture(params=[QueueStore, BoardStore], ids=["queue", "board"])
def store(request, tmp_path):
    return request.param(tmp_path)


def test_claim_is_exclusive_and_ordered(store):
    store.enqueue(1)
    store.enqueue(0)
    first = store.claim("w0")
    assert first["id"] == _id(0)  # lowest index first
    assert first["config"] == CONFIG
    second = store.claim("w1")
    assert second is not None and second["id"] == _id(1)
    assert store.claim("w2") is None  # both leased now


def test_enqueue_reports_enqueued_pending_and_result_exists(store):
    assert store.enqueue(0) == "enqueued"
    assert store.enqueue(0) == "pending"  # waiting
    store.claim("w0")
    assert store.enqueue(0) == "pending"  # leased
    assert store.complete("w0", _id(0), {"record": {"rounds": 1}}) == "done"
    assert store.enqueue(0) == "result-exists"


def test_failed_result_is_not_a_cache(store):
    store.enqueue(0, max_attempts=1)
    store.claim("w0")
    assert store.complete("w0", _id(0), {"error": "boom"}) == "done"
    assert "boom" in store.result(_id(0))["error"]
    assert store.enqueue(0) == "enqueued"  # retried afresh
    assert store.result(_id(0)) is None
    assert store.claim("w1")["attempt"] == 0


def test_failure_within_budget_goes_back_to_pending(store):
    store.enqueue(0, max_attempts=3)
    store.claim("w0")
    assert store.complete("w0", _id(0), {"error": "boom"}) == "retry"
    assert store.pending() == 1
    assert store.result(_id(0)) is None
    assert store.claim("w1")["attempt"] == 1


def test_reclaim_bumps_the_attempt(store):
    store.enqueue(0)
    store.claim("w0")
    assert store.reclaim() == []  # the lease is fresh
    store.age(_id(0))
    assert store.reclaim() == [_id(0)]
    assert store.claim("w1")["attempt"] == 1


def test_budget_exhaustion_reports_out_of_attempts(store):
    store.enqueue(0, max_attempts=2)
    for _ in range(2):
        assert store.claim("w0") is not None
        store.age(_id(0))
        assert store.reclaim() == [_id(0)]
    result = store.result(_id(0))
    assert "out of attempts (2/2)" in result["error"]
    assert result["attempt"] == 2
    assert store.claim("w1") is None


def test_zero_max_attempts_means_unlimited(store):
    store.enqueue(0, max_attempts=0)
    for _ in range(5):  # far past the default budget of 3
        assert store.claim("w0") is not None
        store.age(_id(0))
        assert store.reclaim() == [_id(0)]
    assert store.result(_id(0)) is None
    assert store.pending() == 1


def test_success_is_never_overwritten(store):
    store.enqueue(0)
    store.claim("w0")
    assert store.complete("w0", _id(0), {"record": {"rounds": 7}}) == "done"
    assert store.complete("w0", _id(0), {"error": "late"}) == "ignored"
    assert store.complete("w1", _id(0), {"record": {"rounds": 9}}) == "ignored"
    result = store.result(_id(0))
    assert result["record"] == {"rounds": 7} and "error" not in result


def test_heartbeat_renews_only_the_holders_lease(store):
    store.enqueue(0)
    store.claim("a")
    store.age(_id(0))
    assert store.reclaim() == [_id(0)]
    store.claim("b")
    assert store.heartbeat("b", _id(0))
    store.age(_id(0))  # b dies; a, presumed dead, still runs and beats
    assert not store.heartbeat("a", _id(0))
    assert store.reclaim() == [_id(0)]  # b's stale lease is recovered


@pytest.mark.parametrize("max_attempts", [2, 3])
def test_late_failure_from_reclaimed_worker_is_ignored(store, max_attempts):
    store.enqueue(0, max_attempts=max_attempts)
    store.claim("a")
    store.age(_id(0))
    assert store.reclaim() == [_id(0)]  # attempt 0 -> 1
    assert store.claim("b")["attempt"] == 1
    # The presumed-dead worker reports a failure while b still runs.
    assert store.complete("a", _id(0), {"error": "late"}) == "ignored"
    assert store.lease_owner(_id(0)) == "b"  # the live lease stays
    assert store.pending() == 0  # no duplicate task
    assert store.result(_id(0)) is None
    # No attempt burned: b's success is the task's second execution.
    assert store.complete("b", _id(0), {"record": {"rounds": 3}}) == "done"
    assert store.result(_id(0))["attempt"] == 2


def test_unknown_task_keeps_a_success_and_drops_a_failure(store):
    # A coordinator restart (or a pruned queue directory) forgets tasks;
    # finished work must not be wasted, and a failure has nothing to retry.
    assert store.complete("w0", _id(0), {"record": {"rounds": 3}}) == "done"
    assert store.result(_id(0))["record"] == {"rounds": 3}
    assert store.complete("w0", _id(1), {"error": "boom"}) == "ignored"
    assert store.result(_id(1)) is None
