"""Tests for the TCP coordinator/worker transport (`repro.orchestrator.net`).

Workers run as plain threads (``run_tcp_worker`` is a pure pull loop over a
socket), so monkeypatched algorithm registries are visible to them and the
failure scenarios — killed workers, coordinator restarts, bad secrets —
stay fast and deterministic; CLI tests cover the ``serve`` / ``worker
--connect`` / ``sweep --transport tcp`` entry points.
"""

import json
import socket
import threading
import time

import pytest

from repro.analysis import experiments
from repro.cli import main
from repro.io import records_to_dicts
from repro.orchestrator import (
    CoordinatorClient,
    CoordinatorServer,
    RunConfig,
    RunLedger,
    SweepSpec,
    TcpTransport,
    config_digest,
    default_code_version,
    run_sweep,
    run_tcp_worker,
)
from repro.orchestrator.net import HandshakeError, TaskBoard, parse_address
from repro.orchestrator.queue import FileTaskQueue

CONFIG = RunConfig(algorithm="dle", family="hexagon", size=2, seed=0)
SPEC = SweepSpec(algorithms=["dle", "erosion"], families=["hexagon"],
                 sizes=[2, 3], seeds=[0])


def _digest(config):
    return config_digest(config, default_code_version())


def _task_id(config, index=0):
    return FileTaskQueue.task_id(index, _digest(config))


def _start_worker(address, **kwargs):
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("max_idle", 20.0)
    thread = threading.Thread(target=run_tcp_worker, args=(address,),
                              kwargs=kwargs, daemon=True)
    thread.start()
    return thread


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


# ---------------------------------------------------------------------------
# The in-memory task board
# ---------------------------------------------------------------------------

class TestTaskBoard:
    def test_claim_is_exclusive_and_ordered(self):
        board = TaskBoard()
        second = RunConfig("dle", "hexagon", 3, 0)
        board.enqueue(_task_id(second, 1), second.to_dict(), _digest(second))
        board.enqueue(_task_id(CONFIG, 0), CONFIG.to_dict(), _digest(CONFIG))
        task = board.claim("w0")
        assert task["id"] == _task_id(CONFIG, 0)  # lowest index first
        assert task["config"] == CONFIG.to_dict()
        other = board.claim("w1")
        assert other is not None and other["id"] != task["id"]
        assert board.claim("w2") is None  # both leased now

    def test_enqueue_deduplicates_and_retries_failures(self):
        board = TaskBoard()
        task_id = _task_id(CONFIG)
        assert board.enqueue(task_id, CONFIG.to_dict(),
                             _digest(CONFIG)) == "enqueued"
        assert board.enqueue(task_id, CONFIG.to_dict(),
                             _digest(CONFIG)) == "pending"
        board.claim("w0")
        assert board.enqueue(task_id, CONFIG.to_dict(),
                             _digest(CONFIG)) == "pending"  # leased
        board.complete("w0", task_id, {"record": {"fake": True}})
        assert board.enqueue(task_id, CONFIG.to_dict(),
                             _digest(CONFIG)) == "result-exists"

    def test_failed_result_is_not_a_cache(self):
        board = TaskBoard()
        task_id = _task_id(CONFIG)
        board.enqueue(task_id, CONFIG.to_dict(), _digest(CONFIG),
                      max_attempts=1)
        board.claim("w0")
        assert board.complete("w0", task_id, {"error": "boom"}) == "done"
        assert "error" in board.collect([task_id])[0]
        # Re-enqueueing retries the failure from a zeroed attempt count.
        assert board.enqueue(task_id, CONFIG.to_dict(),
                             _digest(CONFIG)) == "enqueued"
        assert board.collect([task_id]) == []
        assert board.claim("w1")["attempt"] == 0

    def test_reclaim_requeues_stale_lease_with_attempt_bump(self):
        board = TaskBoard(lease_ttl=30.0)
        task_id = _task_id(CONFIG)
        board.enqueue(task_id, CONFIG.to_dict(), _digest(CONFIG))
        board.claim("w0", now=100.0)
        assert board.reclaim_stale(now=110.0) == []  # lease still fresh
        assert board.reclaim_stale(now=200.0) == [task_id]
        task = board.claim("w1", now=200.0)
        assert task["attempt"] == 1

    def test_heartbeat_extends_the_lease(self):
        board = TaskBoard(lease_ttl=30.0)
        task_id = _task_id(CONFIG)
        board.enqueue(task_id, CONFIG.to_dict(), _digest(CONFIG))
        board.claim("w0", now=100.0)
        assert board.heartbeat("w0", task_id, now=125.0)
        assert board.reclaim_stale(now=140.0) == []  # extended past 130
        assert not board.heartbeat("other", task_id)  # not the owner

    def test_reclaim_fails_task_when_budget_spent(self):
        board = TaskBoard(lease_ttl=10.0)
        task_id = _task_id(CONFIG)
        board.enqueue(task_id, CONFIG.to_dict(), _digest(CONFIG),
                      max_attempts=2)
        for attempt in (1, 2):
            assert board.claim(f"w{attempt}", now=attempt * 100.0) is not None
            assert board.reclaim_stale(now=attempt * 100.0 + 50) == [task_id]
        (payload,) = board.collect([task_id])
        assert "out of attempts (2/2)" in payload["error"]
        assert payload["attempt"] == 2
        assert board.claim("w3") is None

    def test_failure_never_overwrites_a_successful_result(self):
        board = TaskBoard(lease_ttl=10.0)
        task_id = _task_id(CONFIG)
        board.enqueue(task_id, CONFIG.to_dict(), _digest(CONFIG))
        board.claim("w0", now=0.0)
        # The lease is reclaimed (w0 presumed dead) and re-run by w1...
        board.reclaim_stale(now=100.0)
        board.claim("w1", now=100.0)
        assert board.complete("w1", task_id,
                              {"record": {"rounds": 7}}) == "done"
        # ...then the presumed-dead worker reports late outcomes: ignored.
        assert board.complete("w0", task_id, {"error": "late"}) == "ignored"
        assert board.complete("w0", task_id,
                              {"record": {"rounds": 9}}) == "ignored"
        (payload,) = board.collect([task_id])
        assert payload["record"] == {"rounds": 7}

    def test_late_failure_from_reclaimed_lease_burns_no_budget(self):
        board = TaskBoard(lease_ttl=10.0)
        task_id = _task_id(CONFIG)
        board.enqueue(task_id, CONFIG.to_dict(), _digest(CONFIG),
                      max_attempts=3)
        board.claim("w0", now=0.0)
        board.reclaim_stale(now=100.0)  # attempt -> 1, re-pending
        assert board.complete("w0", task_id, {"error": "late"}) == "ignored"
        assert board.claim("w1", now=100.0)["attempt"] == 1  # unchanged

    def test_record_for_unknown_task_is_kept(self):
        # A coordinator restart empties the board; a worker finishing a
        # pre-restart task must not have its work dropped.
        board = TaskBoard()
        assert board.complete("w0", "000000-dead",
                              {"record": {"rounds": 3}}) == "done"
        assert board.collect(["000000-dead"])[0]["record"] == {"rounds": 3}
        assert board.complete("w0", "000001-dead",
                              {"error": "boom"}) == "ignored"

    def test_results_are_pruned_after_the_result_ttl(self):
        # A long-lived coordinator's memory is bounded: results nobody
        # collects within result_ttl are dropped (queue-gc's in-memory
        # analog); collecting refreshes the clock.
        board = TaskBoard(result_ttl=100.0)
        kept, pruned = _task_id(CONFIG, 0), _task_id(CONFIG, 1)
        for task_id in (kept, pruned):
            board.enqueue(task_id, CONFIG.to_dict(), _digest(CONFIG))
            board.claim("w0", now=0.0)
            board.complete("w0", task_id, {"record": {"rounds": 1}})
        start = time.monotonic()
        board._result_times[kept] = start - 120.0
        board._result_times[pruned] = start - 120.0
        board.collect([kept])  # refreshes kept's clock to ~start
        board.reclaim_stale(now=start + 50.0)  # pruned is 170s old, kept 50s
        assert [p["id"] for p in board.collect([kept, pruned])] == [kept]

    def test_zero_max_attempts_means_unlimited(self):
        board = TaskBoard(lease_ttl=10.0)
        task_id = _task_id(CONFIG)
        board.enqueue(task_id, CONFIG.to_dict(), _digest(CONFIG),
                      max_attempts=0)
        for attempt in range(1, 6):  # far past the default of 3
            assert board.claim("w0", now=attempt * 100.0) is not None
            assert board.reclaim_stale(
                now=attempt * 100.0 + 50) == [task_id]
        assert board.collect([task_id]) == []  # never failed out


# ---------------------------------------------------------------------------
# Address parsing
# ---------------------------------------------------------------------------

class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("example.org:7000") == ("example.org", 7000)

    def test_bare_port_defaults_to_localhost(self):
        assert parse_address(":7000") == ("127.0.0.1", 7000)
        assert parse_address("7000") == ("127.0.0.1", 7000)

    def test_invalid(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("example.org:port")


# ---------------------------------------------------------------------------
# The shared-secret handshake
# ---------------------------------------------------------------------------

class TestHandshake:
    def test_bad_secret_is_rejected_for_workers_and_submitters(self):
        with CoordinatorServer(port=0, secret="right") as server:
            with pytest.raises(HandshakeError, match="bad shared secret"):
                run_tcp_worker(server.endpoint, secret="wrong", max_idle=5)
            with pytest.raises(HandshakeError, match="bad shared secret"):
                run_sweep(SPEC, transport=TcpTransport(
                    server.endpoint, secret="wrong", timeout=5))
            # Missing secret is rejected the same way.
            with pytest.raises(HandshakeError, match="bad shared secret"):
                CoordinatorClient(server.endpoint).connect()

    def test_matching_secret_is_accepted(self):
        with CoordinatorServer(port=0, secret="s3cret") as server:
            client = CoordinatorClient(server.endpoint,
                                       secret="s3cret").connect()
            assert client.request({"op": "ping"})["ok"]
            client.close()

    def test_unauthenticated_server_ignores_the_secret(self):
        with CoordinatorServer(port=0) as server:
            client = CoordinatorClient(server.endpoint,
                                       secret="anything").connect()
            assert client.request({"op": "ping"})["ok"]
            client.close()

    def test_connecting_to_a_non_coordinator_fails_cleanly(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            address = f"127.0.0.1:{listener.getsockname()[1]}"
            with pytest.raises((HandshakeError, OSError)):
                CoordinatorClient(address, timeout=0.5).connect()
        finally:
            listener.close()


# ---------------------------------------------------------------------------
# The transport, end to end
# ---------------------------------------------------------------------------

class TestTcpTransport:
    def test_two_workers_match_jobs1_reference(self, tmp_path):
        reference = RunLedger(tmp_path / "reference.jsonl")
        expected = run_sweep(SPEC, jobs=1, ledger=reference)

        with CoordinatorServer(port=0, secret="s") as server:
            workers = [_start_worker(server.endpoint, secret="s",
                                     worker_id=f"w{i}") for i in range(2)]
            ledger = RunLedger(tmp_path / "tcp.jsonl")
            transport = TcpTransport(server.endpoint, secret="s", poll=0.02,
                                     workers_expected=2, worker_timeout=30,
                                     timeout=120)
            result = run_sweep(SPEC, transport=transport, ledger=ledger)
            server.stop_workers()
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

    def test_killed_worker_lease_is_reclaimed_mid_sweep(self, tmp_path):
        # A worker that claims a task and is then SIGKILLed never
        # heartbeats: after lease_ttl the coordinator hands the task to a
        # surviving worker and the ledger still matches a jobs=1 run.
        reference = RunLedger(tmp_path / "reference.jsonl")
        run_sweep(SPEC, jobs=1, ledger=reference)

        with CoordinatorServer(port=0, lease_ttl=0.5) as server:
            # The "killed" worker: claims whatever is pending first and
            # goes silent without ever publishing or heartbeating.
            dead = CoordinatorClient(server.endpoint, role="worker",
                                     worker_id="doomed").connect()
            configs = SPEC.expand()
            victim_id = _task_id(configs[0], 0)
            server.board.enqueue(victim_id, configs[0].to_dict(),
                                 _digest(configs[0]))
            claimed = dead.request({"op": "claim"})["task"]
            assert claimed["id"] == victim_id

            survivor = _start_worker(server.endpoint, worker_id="survivor")
            ledger = RunLedger(tmp_path / "tcp.jsonl")
            transport = TcpTransport(server.endpoint, poll=0.02, timeout=120)
            result = run_sweep(SPEC, transport=transport, ledger=ledger)
            dead.close()
            victim_result = server.board.collect([victim_id])[0]
            server.stop_workers()
            survivor.join(timeout=30)

        assert not result.failures
        assert ([e["digest"] for e in reference.entries()]
                == [e["digest"] for e in ledger.entries()])
        assert (records_to_dicts(reference.records())
                == records_to_dicts(ledger.records()))
        # The reclaim really consumed an attempt before the re-run.
        assert victim_result["attempt"] >= 1
        assert victim_result["worker"] == "survivor"

    def test_retry_budget_exhaustion_surfaces_as_gave_up(self, tmp_path,
                                                         monkeypatch):
        calls = {"n": 0}

        def always_fails(shape, seed, order="random", engine="sweep"):
            calls["n"] += 1
            raise RuntimeError("deterministic tcp failure")

        monkeypatch.setitem(experiments.ALGORITHMS, "bad", always_fails)
        spec = SweepSpec(algorithms=["bad"], families=["hexagon"], sizes=[2])
        with CoordinatorServer(port=0) as server:
            worker = _start_worker(server.endpoint, worker_id="w0",
                                   max_idle=0.5)
            ledger = RunLedger(tmp_path / "ledger.jsonl")
            transport = TcpTransport(server.endpoint, poll=0.02,
                                     max_attempts=3, timeout=60)
            result = run_sweep(spec, transport=transport, ledger=ledger,
                               max_attempts=3)
            worker.join(timeout=30)
            assert calls["n"] == 3  # the workers consumed the whole budget
            assert result.counts()["failed"] == 1
            assert "deterministic tcp failure" in result.failures[0].error
            (digest, entry), = ledger.failures().items()
            assert entry["attempts"] == 3
            # A resumed sweep refuses to spend more executions on it.
            resumed = run_sweep(spec,
                                transport=TcpTransport(server.endpoint,
                                                       timeout=5),
                                ledger=ledger, resume=True, max_attempts=3)
        assert calls["n"] == 3  # gave up immediately, nothing re-ran
        assert resumed.counts()["gave-up"] == 1

    def test_coordinator_restart_workers_reconnect(self, tmp_path,
                                                   monkeypatch):
        # Stop the coordinator mid-sweep and bring a fresh one up on the
        # same port: workers reconnect with backoff, the transport
        # re-submits what is still pending, and the sweep completes.
        def slow_dle(shape, seed, order="random", engine="sweep"):
            time.sleep(0.05)
            return {"rounds": 1, "succeeded": True}

        monkeypatch.setitem(experiments.ALGORITHMS, "slowdle", slow_dle)
        spec = SweepSpec(algorithms=["slowdle"], families=["hexagon"],
                         sizes=[2, 3, 4], seeds=[0, 1, 2])
        port = _free_port()
        address = f"127.0.0.1:{port}"
        first = CoordinatorServer(port=port).start()
        workers = [_start_worker(address, worker_id=f"w{i}", max_idle=60)
                   for i in range(2)]
        holder = {}

        def sweep():
            transport = TcpTransport(address, poll=0.02, timeout=120)
            holder["result"] = run_sweep(spec, transport=transport)

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        time.sleep(0.4)  # let some tasks finish on the first coordinator
        first.stop()
        time.sleep(0.3)  # workers and transport are now reconnecting
        second = CoordinatorServer(port=port).start()
        try:
            thread.join(timeout=120)
            assert not thread.is_alive(), "sweep did not survive the restart"
            second.stop_workers()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            second.stop()
        result = holder["result"]
        assert not result.failures
        assert result.counts()["executed"] == len(spec.expand())

    def test_results_are_cached_and_resumable(self, tmp_path):
        with CoordinatorServer(port=0) as server:
            worker = _start_worker(server.endpoint, worker_id="w0",
                                   max_idle=1.0)
            transport = TcpTransport(server.endpoint, poll=0.02, timeout=120)
            cache_dir = tmp_path / "cache"
            ledger_path = tmp_path / "ledger.jsonl"
            cold = run_sweep(SPEC, transport=transport, cache=cache_dir,
                             ledger=ledger_path)
            worker.join(timeout=30)
            assert cold.counts()["executed"] == len(SPEC.expand())
            # Warm again through the cache (no workers needed at all) and
            # through the ledger (resume).
            warm = run_sweep(SPEC, cache=cache_dir,
                             transport=TcpTransport(server.endpoint,
                                                    timeout=5))
            assert warm.counts()["cached"] == len(SPEC.expand())
            resumed = run_sweep(SPEC, ledger=ledger_path, resume=True,
                                transport=TcpTransport(server.endpoint,
                                                       timeout=5))
            assert resumed.counts()["resumed"] == len(SPEC.expand())

    def test_max_tasks_worker_redelivers_its_last_result_first(
            self, monkeypatch):
        # A --max-tasks worker whose final publish hits a dead link must
        # redeliver after reconnecting, not exit and discard the work.
        def slow(shape, seed, order="random", engine="sweep"):
            time.sleep(0.6)
            return {"rounds": 5, "succeeded": True}

        monkeypatch.setitem(experiments.ALGORITHMS, "slownet", slow)
        config = RunConfig("slownet", "hexagon", 2, 0)
        port = _free_port()
        address = f"127.0.0.1:{port}"
        first = CoordinatorServer(port=port).start()
        task_id = _task_id(config)
        first.board.enqueue(task_id, config.to_dict(), _digest(config))
        holder = {}

        def worker():
            holder["summary"] = run_tcp_worker(address, worker_id="w0",
                                               poll=0.02, max_tasks=1,
                                               max_idle=30)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        # Wait until the task is claimed (it then executes for ~0.6s),
        # yank the coordinator so the result publish fails, and bring up
        # a fresh (empty) board on the same port.
        deadline = time.monotonic() + 10
        while first.board.stats()["leased"] == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        first.stop()
        second = CoordinatorServer(port=port).start()
        try:
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert holder["summary"].processed == 1
            # The record landed on the restarted coordinator's board.
            (payload,) = second.board.collect([task_id])
            assert payload["record"]["rounds"] == 5
        finally:
            second.stop()

    def test_stop_broadcast_halts_idle_workers(self):
        # The TCP analog of touching STOP in a queue directory.
        with CoordinatorServer(port=0) as server:
            workers = [_start_worker(server.endpoint, worker_id=f"w{i}",
                                     max_idle=60.0) for i in range(2)]
            deadline = time.monotonic() + 10
            while (len(server.live_workers()) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            server.stop_workers()
            for worker in workers:
                worker.join(timeout=10)
                assert not worker.is_alive()

    def test_workers_expected_fails_fast_without_workers(self):
        with CoordinatorServer(port=0) as server:
            transport = TcpTransport(server.endpoint, workers_expected=1,
                                     worker_timeout=0.2, poll=0.02)
            with pytest.raises(RuntimeError, match="0 of 1 expected"):
                run_sweep(SPEC, transport=transport)

    def test_timeout_bounds_the_wait(self):
        with CoordinatorServer(port=0) as server:
            transport = TcpTransport(server.endpoint, timeout=0.3, poll=0.02)
            with pytest.raises(TimeoutError, match="unfinished"):
                run_sweep(SPEC, transport=transport)

    def test_unreachable_coordinator_fails_with_guidance(self):
        port = _free_port()
        transport = TcpTransport(f"127.0.0.1:{port}", timeout=5)
        with pytest.raises(ConnectionError, match="repro serve"):
            run_sweep(SPEC, transport=transport)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCli:
    def test_sweep_tcp_requires_coordinator(self, capsys):
        assert main(["sweep", "--transport", "tcp"]) == 2
        assert "--coordinator" in capsys.readouterr().err

    def test_coordinator_requires_tcp_transport(self, capsys):
        assert main(["sweep", "--coordinator", "localhost:1"]) == 2
        assert "--transport tcp" in capsys.readouterr().err

    def test_worker_needs_exactly_one_backend(self, capsys):
        assert main(["worker"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["worker", "/tmp/q", "--connect", "h:1"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_worker_connect_command_runs_and_exits(self, capsys):
        with CoordinatorServer(port=0) as server:
            server.board.enqueue(_task_id(CONFIG), CONFIG.to_dict(),
                                 _digest(CONFIG))
            code = main(["worker", "--connect", server.endpoint,
                         "--poll", "0.02", "--max-idle", "0.3"])
            assert code == 0
            err = capsys.readouterr().err
            assert "exiting after 1 task(s)" in err
            (payload,) = server.board.collect([_task_id(CONFIG)])
            assert payload["record"]["rounds"] > 0

    def test_worker_connect_bad_secret_exits_nonzero(self, capsys):
        with CoordinatorServer(port=0, secret="right") as server:
            code = main(["worker", "--connect", server.endpoint,
                         "--secret", "wrong", "--max-idle", "5"])
        assert code == 1
        assert "bad shared secret" in capsys.readouterr().err

    def test_cli_tcp_sweep_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SECRET", "env-secret")
        with CoordinatorServer(port=0, secret="env-secret") as server:
            worker = _start_worker(server.endpoint, secret="env-secret",
                                   worker_id="cli-w", max_idle=5.0)
            summary_path = tmp_path / "summary.json"
            code = main(["sweep", "--algorithms", "dle", "--families",
                         "hexagon", "--sizes", "2", "--quiet",
                         "--transport", "tcp",
                         "--coordinator", server.endpoint,
                         "--workers-expected", "1", "--worker-timeout", "30",
                         "--queue-timeout", "120",
                         "--summary-json", str(summary_path)])
            server.stop_workers()
            worker.join(timeout=30)
        assert code == 0
        counts = json.loads(summary_path.read_text())["counts"]
        assert counts["executed"] == 1 and counts["failed"] == 0
