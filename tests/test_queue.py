"""Tests for the filesystem task queue and the distributed queue transport.

Workers run as plain threads here (``run_worker`` is a pure pull loop), so
monkeypatched algorithm registries are visible to them and the tests stay
fast and deterministic; one CLI test covers the ``python -m repro worker``
entry point itself.
"""

import json
import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.analysis import experiments
from repro.cli import main
from repro.io import records_to_dicts
from repro.orchestrator import (
    FileTaskQueue,
    QueueTransport,
    RunConfig,
    RunLedger,
    SweepSpec,
    config_digest,
    default_code_version,
    run_sweep,
    run_worker,
)
from repro.orchestrator.queue import await_results

CONFIG = RunConfig(algorithm="dle", family="hexagon", size=2, seed=0)
SPEC = SweepSpec(algorithms=["dle", "erosion"], families=["hexagon"],
                 sizes=[2, 3], seeds=[0])


def _digest(config):
    return config_digest(config, default_code_version())


def _enqueue(queue, config, index=0, **kwargs):
    task_id = queue.task_id(index, _digest(config))
    status = queue.enqueue(task_id, config.to_dict(), _digest(config),
                           **kwargs)
    return task_id, status


def _start_worker(queue_dir, **kwargs):
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("max_idle", 20.0)
    thread = threading.Thread(target=run_worker, args=(queue_dir,),
                              kwargs=kwargs, daemon=True)
    thread.start()
    return thread


# ---------------------------------------------------------------------------
# The on-disk queue primitives
# ---------------------------------------------------------------------------

class TestFileTaskQueue:
    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q")
        second = RunConfig("dle", "hexagon", 3, 0)
        _enqueue(queue, second, index=1)
        _enqueue(queue, CONFIG, index=0)
        task_id, payload = queue.claim()
        assert task_id == queue.task_id(0, _digest(CONFIG))  # lowest index
        assert payload["config"] == CONFIG.to_dict()
        other = queue.claim()
        assert other is not None and other[0] != task_id
        assert queue.claim() is None  # both leased now

    def test_enqueue_deduplicates_and_retries_failures(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q")
        task_id, status = _enqueue(queue, CONFIG)
        assert status == "enqueued"
        assert _enqueue(queue, CONFIG)[1] == "pending"  # already queued
        queue.claim("w0")
        assert _enqueue(queue, CONFIG)[1] == "pending"  # leased
        queue.complete("w0", task_id, {"record": {"fake": True}})
        assert _enqueue(queue, CONFIG)[1] == "result-exists"
        # A failed result is not a cache: it is deleted and re-enqueued.
        queue.result_path(task_id).write_text(
            json.dumps({"kind": "sweep-task-result", "error": "boom"}))
        assert _enqueue(queue, CONFIG)[1] == "enqueued"
        assert not queue.result_path(task_id).exists()

    def test_reclaim_requeues_stale_lease_with_attempt_bump(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=30.0)
        task_id, _ = _enqueue(queue, CONFIG)
        queue.claim()
        assert queue.reclaim_stale() == []  # lease is fresh
        stale = time.time() - 120
        os.utime(queue.lease_path(task_id), (stale, stale))
        assert queue.reclaim_stale() == [task_id]
        assert queue.task_path(task_id).exists()
        assert not queue.lease_path(task_id).exists()
        _, payload = queue.claim()
        assert payload["attempt"] == 1

    def test_reclaim_fails_task_when_budget_spent(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=30.0)
        task_id, _ = _enqueue(queue, CONFIG, max_attempts=2)
        for expected_attempt in (1, 2):
            queue.claim()
            stale = time.time() - 120
            os.utime(queue.lease_path(task_id), (stale, stale))
            assert queue.reclaim_stale() == [task_id]
            if expected_attempt < 2:
                assert queue.task_path(task_id).exists()
        result = json.loads(queue.result_path(task_id).read_text())
        assert "out of attempts (2/2)" in result["error"]
        assert queue.claim() is None

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=0.2)
        task_id, _ = _enqueue(queue, CONFIG)
        queue.claim()
        time.sleep(0.3)
        queue.touch_lease(task_id)
        assert queue.reclaim_stale() == []

    def test_claim_restarts_the_lease_clock(self, tmp_path):
        # Regression: rename() preserves mtime, so a task that waited in
        # the queue longer than the TTL used to produce a lease that was
        # stale the moment it was claimed.
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=30.0)
        task_id, _ = _enqueue(queue, CONFIG)
        old = time.time() - 300
        os.utime(queue.task_path(task_id), (old, old))
        assert queue.claim() is not None
        assert queue.reclaim_stale() == []  # freshly claimed, not stale

    def test_failure_never_overwrites_a_successful_result(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q")
        task_id, _ = _enqueue(queue, CONFIG)
        queue.claim("w0")
        queue.complete("w0", task_id, {"record": {"rounds": 7}})
        # A late reclaimer (or losing duplicate run) reports a failure...
        queue.complete("w0", task_id, {"error": "lease expired"})
        payload = json.loads(queue.result_path(task_id).read_text())
        assert payload["record"] == {"rounds": 7} and "error" not in payload

    def test_orphaned_reclaim_file_is_recovered(self, tmp_path):
        # A reclaimer that dies between renaming the stale lease away and
        # re-enqueueing must not strand the task forever.
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=0.2)
        task_id, _ = _enqueue(queue, CONFIG)
        queue.claim()
        orphan = queue.leases / ".deadbeef.reclaim"
        os.rename(queue.lease_path(task_id), orphan)
        stale = time.time() - 60
        os.utime(orphan, (stale, stale))
        assert queue.reclaim_stale() == [task_id]
        assert queue.task_path(task_id).exists()
        assert not orphan.exists()
        _, payload = queue.claim()
        assert payload["attempt"] == 1

    def test_unreadable_task_becomes_a_failed_result(self, tmp_path):
        # A torn/empty task file (host crash before the data hit disk)
        # must terminate as a failure the coordinator can consume, not
        # vanish and hang the sweep forever.
        queue = FileTaskQueue(tmp_path / "q")
        queue.ensure_layout()
        (queue.tasks / "000000-deadbeef.json").write_text("")
        assert queue.claim() is None
        payload = json.loads(
            queue.result_path("000000-deadbeef").read_text())
        assert "unreadable task payload" in payload["error"]
        assert not queue.lease_path("000000-deadbeef").exists()

    def test_zero_max_attempts_means_unlimited(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=30.0)
        task_id, _ = _enqueue(queue, CONFIG, max_attempts=0)
        for expected_attempt in range(1, 6):  # far past the default of 3
            queue.claim()
            stale = time.time() - 120
            os.utime(queue.lease_path(task_id), (stale, stale))
            assert queue.reclaim_stale() == [task_id]
            assert queue.task_path(task_id).exists()  # requeued, not failed
        assert not queue.result_path(task_id).exists()


# ---------------------------------------------------------------------------
# Queue-directory garbage collection
# ---------------------------------------------------------------------------

class TestQueueGc:
    def test_reclaim_then_gc_sequence(self, tmp_path):
        """A dead worker's lease is first *reclaimed* (the task survives,
        attempt bumped), and only queue byproducts are pruned by gc."""
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=0.05)
        task_id, _ = _enqueue(queue, CONFIG)
        claimed = queue.claim()
        assert claimed is not None and claimed[0] == task_id
        # The claiming worker "dies": no heartbeat, lease goes stale.
        time.sleep(0.08)
        counts = queue.gc(ttl=3600.0)
        assert counts["reclaimed"] == 1
        # The reclaim re-enqueued the task with its attempt bumped.
        payload = json.loads(queue.task_path(task_id).read_text())
        assert payload["attempt"] == 1
        assert not queue.lease_path(task_id).exists()
        # Nothing else was pruned: the pending task file must survive gc.
        assert queue.task_path(task_id).exists()

    def test_gc_prunes_old_results_workers_and_stop(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q")
        queue.ensure_layout()
        queue.complete("w0", "000001-old", {"record": {"x": 1}})
        queue.result_path("000002-failed").write_text(
            json.dumps({"kind": "sweep-task-result", "error": "boom"}))
        queue.complete("w0", "000003-new", {"record": {"x": 2}})
        (queue.workers / "dead.json").write_text("{}")
        (queue.root / "STOP").write_text("")
        fresh = queue.result_path("000003-new")
        old = time.time() - 7200
        for path in (queue.result_path("000001-old"),
                     queue.result_path("000002-failed"),
                     queue.workers / "dead.json",
                     queue.root / "STOP"):
            os.utime(path, (old, old))
        counts = queue.gc(ttl=3600.0)
        assert counts == {"reclaimed": 0, "results": 2, "workers": 1,
                          "stop": 1}
        assert not queue.result_path("000001-old").exists()
        assert not queue.result_path("000002-failed").exists()
        assert fresh.exists()  # younger than the ttl
        assert not (queue.root / "STOP").exists()

    def test_gc_respects_no_reclaim(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=0.05)
        task_id, _ = _enqueue(queue, CONFIG)
        queue.claim()
        time.sleep(0.08)
        counts = queue.gc(ttl=3600.0, reclaim=False)
        assert counts["reclaimed"] == 0
        assert queue.lease_path(task_id).exists()

    def test_cli_queue_gc(self, tmp_path, capsys):
        queue = FileTaskQueue(tmp_path / "q")
        queue.ensure_layout()
        queue.complete("w0", "000001-x", {"record": {}})
        old = time.time() - 7200
        os.utime(queue.result_path("000001-x"), (old, old))
        out = tmp_path / "gc.json"
        code = main(["queue-gc", str(tmp_path / "q"), "--ttl", "3600",
                     "--json", str(out)])
        assert code == 0
        assert "1 result(s) pruned" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["counts"]["results"] == 1


# ---------------------------------------------------------------------------
# The worker daemon loop
# ---------------------------------------------------------------------------

class TestWorker:
    def test_worker_drains_queue_and_exits_on_idle(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q")
        ids = []
        for index, size in enumerate([2, 3]):
            config = RunConfig("dle", "hexagon", size, 0)
            ids.append(_enqueue(queue, config, index=index)[0])
        summary = run_worker(tmp_path / "q", poll=0.02, max_idle=0.2)
        assert summary.processed == 2
        for task_id in ids:
            payload = json.loads(queue.result_path(task_id).read_text())
            assert payload["record"]["rounds"] > 0
            assert payload["attempt"] == 1
        assert not any(queue.leases.glob("*.json"))
        assert not any(queue.workers.glob("*.json"))  # deregistered

    def test_stop_file_halts_worker(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q")
        queue.ensure_layout()
        (queue.root / "STOP").touch()
        _enqueue(queue, CONFIG)
        assert run_worker(tmp_path / "q", poll=0.02).processed == 0
        assert queue.task_path(queue.task_id(0, _digest(CONFIG))).exists()

    def test_failing_task_respects_retry_budget(self, tmp_path, monkeypatch):
        calls = {"n": 0}

        def always_fails(shape, seed, order="random", engine="sweep",
                         checkpoint=None):
            calls["n"] += 1
            raise RuntimeError("synthetic worker failure")

        monkeypatch.setitem(experiments.ALGORITHMS, "bad", always_fails)
        queue = FileTaskQueue(tmp_path / "q")
        config = RunConfig("bad", "hexagon", 2, 0)
        task_id, _ = _enqueue(queue, config, max_attempts=3)
        summary = run_worker(tmp_path / "q", poll=0.02, max_idle=0.2)
        assert summary.processed == 3  # two retries + the terminal failure
        assert calls["n"] == 3
        payload = json.loads(queue.result_path(task_id).read_text())
        assert "synthetic worker failure" in payload["error"]
        assert payload["attempt"] == 3

    def test_long_task_does_not_count_as_idle_time(self, tmp_path,
                                                   monkeypatch):
        # Regression: the idle clock used to start at claim time, so a
        # task longer than --max-idle made the worker quit the moment the
        # queue went briefly empty.
        def slow(shape, seed, order="random", engine="sweep",
                 checkpoint=None):
            time.sleep(0.5)
            return {"rounds": 1, "succeeded": True}

        monkeypatch.setitem(experiments.ALGORITHMS, "slow", slow)
        queue = FileTaskQueue(tmp_path / "q")
        config = RunConfig("slow", "hexagon", 2, 0)
        _enqueue(queue, config, index=0)
        started = time.monotonic()
        summary = run_worker(tmp_path / "q", poll=0.02, max_idle=0.3)
        # max_idle (0.3s) < task time (0.5s): the worker must still hang
        # around for a full idle window *after* finishing the task.
        assert summary.processed == 1
        assert time.monotonic() - started >= 0.8

    def test_contended_retries_settle_every_task(self, tmp_path,
                                                  monkeypatch):
        # More workers than cores race for tasks that fail twice before
        # succeeding.  A retry must re-enqueue its task without touching a
        # lease another worker may take the same instant, so every task
        # ends in one success after exactly three runs, and nothing is
        # left in tasks/ or leases/.
        runs = {}
        runs_lock = threading.Lock()

        def flaky(shape, seed, order="random", engine="sweep",
                  checkpoint=None):
            with runs_lock:
                runs[seed] = runs.get(seed, 0) + 1
                if runs[seed] <= 2:
                    raise RuntimeError("flaky")
            return {"rounds": 1, "succeeded": True}

        monkeypatch.setitem(experiments.ALGORITHMS, "flaky", flaky)
        queue = FileTaskQueue(tmp_path / "q")
        ids = [_enqueue(queue, RunConfig("flaky", "hexagon", 1, seed),
                        index=seed, max_attempts=3)[0] for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [_start_worker(tmp_path / "q", worker_id=f"w{i}",
                                     poll=0.001) for i in range(4)]
            deadline = time.monotonic() + 60
            while (time.monotonic() < deadline and not all(
                    queue.result_path(t).exists() for t in ids)):
                time.sleep(0.01)
            (queue.root / "STOP").touch()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for task_id in ids:
            assert "record" in json.loads(
                queue.result_path(task_id).read_text())
        assert not any(queue.tasks.iterdir())
        assert not any(queue.leases.iterdir())
        assert runs == {seed: 3 for seed in range(8)}

    def test_worker_registration_is_visible(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q")
        queue.ensure_layout()
        thread = _start_worker(tmp_path / "q", worker_id="wreg",
                               max_idle=0.6)
        try:
            deadline = time.monotonic() + 5
            while not queue.live_workers() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert queue.live_workers() == ["wreg"]
        finally:
            thread.join(timeout=10)
        assert queue.live_workers() == []


# ---------------------------------------------------------------------------
# The queue transport, end to end
# ---------------------------------------------------------------------------

class TestQueueTransport:
    def test_two_workers_match_jobs1_reference(self, tmp_path):
        reference = RunLedger(tmp_path / "reference.jsonl")
        expected = run_sweep(SPEC, jobs=1, ledger=reference)

        queue_dir = tmp_path / "q"
        workers = [_start_worker(queue_dir, worker_id=f"w{i}")
                   for i in range(2)]
        ledger = RunLedger(tmp_path / "queue.jsonl")
        transport = QueueTransport(queue_dir, poll=0.02, workers_expected=2,
                                   worker_timeout=30, timeout=120)
        result = run_sweep(SPEC, transport=transport, ledger=ledger)
        (queue_dir / "STOP").touch()
        for worker in workers:
            worker.join(timeout=30)

        assert result.counts()["executed"] == len(SPEC.expand())
        # Same digests, same record payloads, spec order preserved.
        assert ([e["digest"] for e in reference.entries()]
                == [e["digest"] for e in ledger.entries()])
        assert (records_to_dicts(reference.records())
                == records_to_dicts(ledger.records()))
        assert (records_to_dicts(expected.records)
                == records_to_dicts(result.records))

    def test_dead_worker_lease_is_reclaimed_mid_sweep(self, tmp_path):
        # Simulate a worker that claims a task and is then killed: the
        # lease never heartbeats, so reclamation must hand the task to the
        # surviving worker and the sweep must still finish with the same
        # ledger as a jobs=1 run.
        reference = RunLedger(tmp_path / "reference.jsonl")
        run_sweep(SPEC, jobs=1, ledger=reference)

        queue_dir = tmp_path / "q"
        queue = FileTaskQueue(queue_dir, lease_ttl=0.5)
        configs = SPEC.expand()
        victim = configs[0]
        _enqueue(queue, victim, index=0)
        claimed = queue.claim()
        assert claimed is not None  # the "dead worker" holds this lease
        stale = time.time() - 60
        os.utime(queue.lease_path(claimed[0]), (stale, stale))

        survivor = _start_worker(queue_dir, worker_id="survivor",
                                 lease_ttl=0.5)
        ledger = RunLedger(tmp_path / "queue.jsonl")
        transport = QueueTransport(queue_dir, lease_ttl=0.5, poll=0.02,
                                   timeout=120)
        result = run_sweep(SPEC, transport=transport, ledger=ledger)
        (queue_dir / "STOP").touch()
        survivor.join(timeout=30)

        assert not result.failures
        assert ([e["digest"] for e in reference.entries()]
                == [e["digest"] for e in ledger.entries()])
        assert (records_to_dicts(reference.records())
                == records_to_dicts(ledger.records()))
        # The reclaimed task really did consume an attempt.
        victim_result = json.loads(
            queue.result_path(queue.task_id(0, _digest(victim))).read_text())
        assert victim_result["attempt"] >= 1

    def test_queue_results_are_cached_and_resumable(self, tmp_path):
        queue_dir = tmp_path / "q"
        worker = _start_worker(queue_dir, worker_id="w0")
        transport = QueueTransport(queue_dir, poll=0.02, timeout=120)
        cache_dir = tmp_path / "cache"
        ledger_path = tmp_path / "ledger.jsonl"
        cold = run_sweep(SPEC, transport=transport, cache=cache_dir,
                         ledger=ledger_path)
        (queue_dir / "STOP").touch()
        worker.join(timeout=30)
        assert cold.counts()["executed"] == len(SPEC.expand())
        # Warm again through the cache (no workers needed at all) and
        # through the ledger (resume).
        warm = run_sweep(SPEC, transport=QueueTransport(queue_dir, timeout=5),
                         cache=cache_dir)
        assert warm.counts()["cached"] == len(SPEC.expand())
        resumed = run_sweep(SPEC,
                            transport=QueueTransport(queue_dir, timeout=5),
                            ledger=ledger_path, resume=True)
        assert resumed.counts()["resumed"] == len(SPEC.expand())

    def test_queue_retries_count_toward_the_resume_budget(self, tmp_path,
                                                          monkeypatch):
        # Worker-side retries and ledger-side resume retries must share
        # one budget: a config the workers already ran 3 times is given up
        # on the very next resume, not retried 3 more times per resume.
        calls = {"n": 0}

        def always_fails(shape, seed, order="random", engine="sweep",
                         checkpoint=None):
            calls["n"] += 1
            raise RuntimeError("deterministic queue failure")

        monkeypatch.setitem(experiments.ALGORITHMS, "bad", always_fails)
        spec = SweepSpec(algorithms=["bad"], families=["hexagon"], sizes=[2])
        queue_dir = tmp_path / "q"
        worker = _start_worker(queue_dir, worker_id="w0", max_idle=0.5)
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        transport = QueueTransport(queue_dir, poll=0.02, max_attempts=3,
                                   timeout=60)
        result = run_sweep(spec, transport=transport, ledger=ledger,
                           max_attempts=3)
        worker.join(timeout=30)
        assert calls["n"] == 3  # the worker consumed the whole budget
        assert result.counts()["failed"] == 1
        (digest, entry), = ledger.failures().items()
        assert entry["attempts"] == 3
        resumed = run_sweep(spec, transport=QueueTransport(queue_dir,
                                                           timeout=5),
                            ledger=ledger, resume=True, max_attempts=3)
        assert calls["n"] == 3  # gave up immediately, nothing re-ran
        assert resumed.counts()["gave-up"] == 1

    def test_workers_expected_fails_fast_without_workers(self, tmp_path):
        transport = QueueTransport(tmp_path / "q", workers_expected=1,
                                   worker_timeout=0.2, poll=0.02)
        with pytest.raises(RuntimeError, match="0 of 1 expected"):
            run_sweep(SPEC, transport=transport)

    def test_timeout_bounds_the_wait(self, tmp_path):
        transport = QueueTransport(tmp_path / "q", timeout=0.3, poll=0.02)
        with pytest.raises(TimeoutError, match="unfinished"):
            run_sweep(SPEC, transport=transport)


class TestAwaitResults:
    """The wait-for-results loop the queue and TCP transports share."""

    def test_yields_each_pending_result_once(self):
        pending = {"a": 0, "b": 1}
        polls = [[("a", {"n": 1}), ("stray", {"n": 9})], [],
                 [("a", {"n": 1}), ("b", {"n": 2})]]
        transport = SimpleNamespace(name="demo", timeout=None, poll=0.001)
        collected = list(await_results(transport, pending,
                                       lambda: polls.pop(0), lambda: [],
                                       None))
        assert collected == [(0, {"n": 1}), (1, {"n": 2})]
        assert not pending and not polls

    def test_deadline_names_unfinished_tasks_and_live_workers(self):
        transport = SimpleNamespace(name="demo", timeout=0.05, poll=0.01)
        with pytest.raises(TimeoutError,
                           match=r"^demo sweep timed out after 0.05s with "
                                 r"1 task\(s\) unfinished "
                                 r"\(live workers: \['w1'\]\)$"):
            list(await_results(transport, {"a": 0}, lambda: [],
                               lambda: ["w1"], time.monotonic() + 0.05))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCli:
    def test_sweep_queue_requires_queue_dir(self, capsys):
        assert main(["sweep", "--transport", "queue"]) == 2
        assert "--queue-dir" in capsys.readouterr().err

    def test_queue_dir_requires_queue_transport(self, tmp_path, capsys):
        assert main(["sweep", "--queue-dir", str(tmp_path)]) == 2
        assert "--transport queue" in capsys.readouterr().err

    def test_worker_command_runs_and_exits(self, tmp_path, capsys):
        queue = FileTaskQueue(tmp_path / "q")
        _enqueue(queue, CONFIG)
        code = main(["worker", str(tmp_path / "q"),
                     "--poll", "0.02", "--max-idle", "0.2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "exiting after 1 task(s)" in err
        task_id = queue.task_id(0, _digest(CONFIG))
        assert queue.result_path(task_id).exists()

    def test_cli_queue_sweep_end_to_end(self, tmp_path, capsys):
        queue_dir = tmp_path / "q"
        worker = _start_worker(queue_dir, worker_id="cli-w")
        summary_path = tmp_path / "summary.json"
        code = main(["sweep", "--algorithms", "dle", "--families", "hexagon",
                     "--sizes", "2", "--quiet",
                     "--transport", "queue", "--queue-dir", str(queue_dir),
                     "--workers-expected", "1", "--worker-timeout", "30",
                     "--queue-timeout", "120",
                     "--summary-json", str(summary_path)])
        (queue_dir / "STOP").touch()
        worker.join(timeout=30)
        assert code == 0
        counts = json.loads(summary_path.read_text())["counts"]
        assert counts["executed"] == 1 and counts["failed"] == 0