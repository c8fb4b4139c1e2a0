"""Tests for the telemetry layer: registry, event log, logging, status.

The overhead test is the contract the whole design leans on: with the
default no-op registry installed, instrumentation must add well under 2%
to a real election run.  It is asserted from first principles — count the
instrument calls a run makes, measure the no-op per-call cost in a tight
loop, and compare the product against the run's wall time — so the bound
holds on slow CI machines where a direct A/B timing would drown in noise.
"""

import json
import logging
import time

import pytest

from repro.cli import main
from repro.orchestrator import (
    FileTaskQueue,
    RunConfig,
    WorkerSummary,
    config_digest,
    default_code_version,
    run_sweep,
    run_worker,
)
from repro.orchestrator.net import CoordinatorServer, TaskBoard, fetch_status
from repro.session import Session
from repro.telemetry import (
    EventLog,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    configure_logging,
    counter,
    get_event_log,
    get_logger,
    get_registry,
    quantile,
    summarize_ages,
    use_event_log,
    use_registry,
)

CONFIG = RunConfig(algorithm="dle", family="hexagon", size=2, seed=0)


def _digest(config):
    return config_digest(config, default_code_version())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.gauge("g").set(7)
        registry.gauge("g").dec(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a"] == 5
        assert snapshot["gauges"]["g"] == 5

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_boundary_lands_in_its_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 5.0, 99.0):
            hist.observe(value)
        buckets = dict((bound, count) for bound, count
                       in hist.snapshot()["buckets"][:-1])
        # A value equal to a bound counts in that bucket, not the next.
        assert buckets[1.0] == 2   # 0.5 and 1.0
        assert buckets[2.0] == 2   # 1.5 and 2.0
        assert buckets[5.0] == 1   # 5.0
        assert hist.snapshot()["buckets"][-1] == [None, 1]  # 99.0 overflows

    def test_histogram_min_max_sum(self):
        hist = Histogram("h", buckets=(1.0,))
        for value in (3.0, 0.25, 2.0):
            hist.observe(value)
        snapshot = hist.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["min"] == 0.25
        assert snapshot["max"] == 3.0
        assert snapshot["sum"] == pytest.approx(5.25)

    def test_histogram_quantile_interpolates_within_bucket(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(5.0)
        # The median falls in the first bucket, which spans [min, 1.0]:
        # linear interpolation puts rank 50-of-99 at 0.5 + 0.5 * 50/99.
        assert hist.quantile(0.5) == pytest.approx(0.5 + 0.5 * 50 / 99)
        # The top quantile would interpolate to the second bucket's upper
        # bound (10.0), but no observation exceeded 5.0 — clamp to max.
        assert hist.quantile(1.0) == 5.0

    def test_histogram_quantile_finite_buckets_linear(self):
        # 100 evenly-spread values per decade bucket: interpolated
        # quantiles should land close to the exact ones.
        hist = Histogram("h", buckets=(10.0, 20.0, 30.0, 40.0))
        values = [0.4 * i for i in range(1, 101)]  # 0.4 .. 40.0
        for value in values:
            hist.observe(value)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert hist.quantile(q) == pytest.approx(40.0 * q, abs=0.5)
        assert hist.quantile(0.0) == pytest.approx(0.4, abs=0.5)
        assert hist.quantile(1.0) == 40.0

    def test_histogram_quantile_overflow_and_empty(self):
        hist = Histogram("h", buckets=(1.0,))
        assert hist.quantile(0.5) == 0.0  # no observations yet
        hist.observe(0.5)
        hist.observe(100.0)  # overflow bucket
        assert hist.quantile(1.0) == 100.0  # overflow answers observed max
        assert hist.quantile(0.0) >= 0.5  # never below observed min

    def test_quantile_exact_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 4.0
        assert quantile(values, 0.5) == pytest.approx(2.5)

    def test_summarize_ages_empty_and_filled(self):
        assert summarize_ages([]) == {"count": 0, "p50": 0.0, "p90": 0.0,
                                      "max": 0.0}
        summary = summarize_ages([1.0, 3.0])
        assert summary["count"] == 2
        assert summary["max"] == 3.0

    def test_default_registry_is_disabled_noop(self):
        registry = get_registry()
        assert not registry.enabled
        registry.counter("whatever").inc()
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}

    def test_use_registry_scopes_and_restores(self):
        real = MetricsRegistry()
        with use_registry(real):
            counter("scoped").inc()
            assert get_registry() is real
        assert not get_registry().enabled
        assert real.snapshot()["counters"]["scoped"] == 1

    def test_null_registry_shares_one_instrument(self):
        null = NullRegistry()
        assert null.counter("a") is null.histogram("b")
        assert null.counter("a").value == 0


# ---------------------------------------------------------------------------
# Overhead: the no-op default must be effectively free
# ---------------------------------------------------------------------------

class CountingRegistry(MetricsRegistry):
    """Counts instrument lookups, the unit every instrumented site pays."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def counter(self, name):
        self.lookups += 1
        return super().counter(name)

    def gauge(self, name):
        self.lookups += 1
        return super().gauge(name)

    def histogram(self, name, buckets=None):
        self.lookups += 1
        return super().histogram(name, buckets)


class TestOverhead:
    def test_disabled_telemetry_costs_under_two_percent(self):
        from repro.analysis.bench import calibrate
        from repro.session import _shape_and_metrics

        config = RunConfig(algorithm="dle", family="hexagon", size=16,
                           seed=0)
        _shape_and_metrics(config.family, config.size, config.seed)  # warm

        counting = CountingRegistry()
        with use_registry(counting):
            started = time.perf_counter()
            Session.run(config)
            run_seconds = time.perf_counter() - started

        # Instrumentation is at run/op granularity, never per activation:
        # a whole election run makes only a handful of instrument calls.
        assert 0 < counting.lookups < 1000

        # Per-call cost of the *disabled* path every site takes by default.
        loops = 100_000
        null_counter = get_registry().counter("overhead")
        started = time.perf_counter()
        for _ in range(loops):
            null_counter.inc()
        per_call = (time.perf_counter() - started) / loops

        overhead = counting.lookups * 2 * per_call  # lookup + method call
        assert overhead < 0.02 * run_seconds, (
            f"no-op telemetry overhead {overhead * 1e6:.1f}us vs "
            f"{run_seconds:.2f}s run")
        # Cross-check against the bench calibration workload: one no-op
        # call must be vanishingly small next to the interpreter baseline.
        assert per_call < calibrate(repeats=1)


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------

class TestEventLog:
    def test_lines_parse_with_context_and_monotonic_order(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, context={"run": "r1"}) as log:
            for index in range(5):
                log.emit("tick", index=index)
            assert log.lines == 5
        entries = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert [entry["index"] for entry in entries] == list(range(5))
        assert all(entry["run"] == "r1" for entry in entries)
        assert all(entry["event"] == "tick" for entry in entries)
        monos = [entry["mono"] for entry in entries]
        assert monos == sorted(monos)

    def test_span_emits_begin_end_with_duration(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with log.span("work", job=3):
            time.sleep(0.01)
        with pytest.raises(ValueError):
            with log.span("boom"):
                raise ValueError("no")
        log.close()
        entries = [json.loads(line) for line in
                   (tmp_path / "events.jsonl").read_text().splitlines()]
        events = [entry["event"] for entry in entries]
        assert events == ["work.begin", "work.end", "boom.begin", "boom.end"]
        assert entries[1]["ok"] is True
        assert entries[1]["dur"] >= 0.01
        assert entries[1]["job"] == 3
        assert entries[3]["ok"] is False

    def test_default_event_log_is_noop_and_scoped_install(self, tmp_path):
        assert not get_event_log().enabled
        log = EventLog(tmp_path / "e.jsonl")
        with use_event_log(log):
            assert get_event_log() is log
            get_event_log().emit("x")
        assert not get_event_log().enabled
        assert log.lines == 1

    def test_emit_after_close_is_noop(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl")
        log.close()
        log.emit("late")  # must not raise
        assert (tmp_path / "e.jsonl").read_text() == ""


# ---------------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------------

class TestLogging:
    def test_configure_is_idempotent(self):
        root = configure_logging("info")
        handlers_before = list(root.handlers)
        assert configure_logging("debug").handlers == handlers_before
        assert root.level == logging.DEBUG
        configure_logging("info")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")

    def test_named_loggers_and_dynamic_stderr(self, capsys):
        configure_logging("info")
        assert get_logger("sweep").name == "repro.sweep"
        get_logger("sweep").info("hello from the sweep")
        assert "hello from the sweep" in capsys.readouterr().err

    def test_level_filters(self, capsys):
        configure_logging("error")
        get_logger("worker").info("invisible")
        assert "invisible" not in capsys.readouterr().err
        configure_logging("info")


# ---------------------------------------------------------------------------
# Sweep integration: metrics + events around run_sweep
# ---------------------------------------------------------------------------

class TestSweepTelemetry:
    def test_run_sweep_records_sources_and_cache_counters(self, tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            run_sweep([CONFIG], cache=str(tmp_path / "cache"))
            run_sweep([CONFIG], cache=str(tmp_path / "cache"))
        counters = registry.snapshot()["counters"]
        assert counters["sweep.executed"] == 1
        assert counters["sweep.cached"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] >= 1
        assert counters["engine.sweep.runs"] == 1
        assert counters.get("ledger.appends", 0) == 0

    def test_run_sweep_emits_begin_config_end(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with use_event_log(log):
            run_sweep([CONFIG])
        log.close()
        entries = [json.loads(line) for line in
                   (tmp_path / "events.jsonl").read_text().splitlines()]
        events = [entry["event"] for entry in entries]
        assert events[0] == "sweep.begin"
        assert events[-1] == "sweep.end"
        assert "sweep.config" in events
        config_entry = entries[events.index("sweep.config")]
        assert config_entry["ok"] is True
        assert config_entry["source"] == "executed"

    def test_cli_sweep_telemetry_dir_and_summary_metrics(self, tmp_path,
                                                         capsys):
        telemetry = tmp_path / "tel"
        summary_path = tmp_path / "summary.json"
        code = main(["sweep", "--algorithms", "dle", "--families", "hexagon",
                     "--sizes", "2", "--quiet",
                     "--telemetry", str(telemetry),
                     "--summary-json", str(summary_path)])
        assert code == 0
        assert (telemetry / "events.jsonl").is_file()
        metrics = json.loads((telemetry / "metrics.json").read_text())
        assert metrics["kind"] == "sweep-metrics"
        assert metrics["snapshot"]["counters"]["engine.sweep.runs"] == 1
        summary = json.loads(summary_path.read_text())
        block = summary["metrics"]
        assert set(block) >= {"cache", "retries", "reclaims", "rounds",
                              "counters"}
        assert block["rounds"]["sweep"] > 0
        assert block["cache"]["hit_rate"] == 0.0


# ---------------------------------------------------------------------------
# TaskBoard stats and the coordinator status op
# ---------------------------------------------------------------------------

class TestBoardStats:
    def test_stats_keeps_legacy_keys_and_adds_lease_ages(self):
        board = TaskBoard(lease_ttl=60.0)
        board.enqueue("000000-a", CONFIG.to_dict(), "a")
        board.enqueue("000001-b", CONFIG.to_dict(), "b")
        board.claim("w0", now=100.0)
        stats = board.stats(now=130.0)
        assert stats["pending"] == 1
        assert stats["leased"] == 1
        assert stats["done"] == 0
        assert stats["counters"]["enqueued"] == 2
        assert stats["counters"]["claims"] == 1
        assert stats["lease_ages"]["count"] == 1
        assert stats["lease_ages"]["max"] == pytest.approx(30.0)
        (lease,) = stats["leases"]
        assert lease["worker"] == "w0"
        assert lease["age"] == pytest.approx(30.0)

    def test_heartbeat_preserves_lease_age(self):
        board = TaskBoard(lease_ttl=60.0)
        board.enqueue("000000-a", CONFIG.to_dict(), "a")
        board.claim("w0", now=100.0)
        board.heartbeat("w0", "000000-a", now=150.0)
        stats = board.stats(now=160.0)
        assert stats["leases"][0]["age"] == pytest.approx(60.0)
        assert stats["counters"]["heartbeats"] == 1

    def test_budget_exhaustion_is_counted(self):
        board = TaskBoard(lease_ttl=10.0)
        board.enqueue("000000-a", CONFIG.to_dict(), "a", max_attempts=1)
        board.claim("w0", now=0.0)
        reclaimed = board.reclaim_stale(now=100.0)
        assert reclaimed == ["000000-a"]
        stats = board.stats(now=100.0)
        assert stats["counters"]["reclaims"] == 1
        assert stats["counters"]["exhausted"] == 1
        assert stats["done"] == 1  # terminal failed result published

    def test_throughput_counts_recent_completions(self):
        board = TaskBoard()
        board.enqueue("000000-a", CONFIG.to_dict(), "a")
        board.claim("w0", now=50.0)
        board.complete("w0", "000000-a", {"record": {"x": 1}})
        recent = board.stats(now=time.monotonic(), window=3600.0)
        assert recent["throughput"]["completed"] == 1
        assert recent["counters"]["completed"] == 1


class TestStatusCli:
    def test_status_requires_exactly_one_target(self, tmp_path, capsys):
        assert main(["status"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["status", "--coordinator", "h:1",
                     "--queue-dir", str(tmp_path)]) == 2

    def test_status_json_against_live_coordinator(self, capsys):
        with CoordinatorServer(port=0) as server:
            server.board.enqueue("000000-a", CONFIG.to_dict(), "a")
            server.board.enqueue("000001-b", CONFIG.to_dict(), "b")
            server.board.claim("w0")
            code = main(["status", "--coordinator", server.endpoint,
                         "--json"])
            assert code == 0
            document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "repro-status"
        assert document["source"] == "tcp"
        assert document["stop"] is False
        board = document["board"]
        assert board["pending"] == 1
        assert board["leased"] == 1
        assert board["counters"]["claims"] == 1
        assert board["lease_ages"]["count"] == 1
        assert board["leases"][0]["worker"] == "w0"
        assert "throughput" in board
        assert document["workers"] == []

    def test_fetch_status_respects_secret(self):
        from repro.orchestrator.net import HandshakeError

        with CoordinatorServer(port=0, secret="s3cret") as server:
            status = fetch_status(server.endpoint, secret="s3cret")
            assert status["board"]["pending"] == 0
            with pytest.raises(HandshakeError):
                fetch_status(server.endpoint, secret="wrong")

    def test_status_json_against_queue_dir(self, tmp_path, capsys):
        queue = FileTaskQueue(tmp_path / "q", lease_ttl=60.0)
        queue.ensure_layout()
        queue.enqueue("000000-" + _digest(CONFIG), CONFIG.to_dict(),
                      _digest(CONFIG))
        queue.enqueue("000001-" + _digest(CONFIG), CONFIG.to_dict() | {},
                      _digest(CONFIG))
        claimed = queue.claim("w7")
        assert claimed is not None
        code = main(["status", "--queue-dir", str(tmp_path / "q"), "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["source"] == "queue"
        assert document["board"]["pending"] == 1
        assert document["board"]["leased"] == 1
        assert document["board"]["leases"][0]["worker"] == "w7"
        assert document["board"]["lease_ages"]["count"] == 1

    def test_status_unreachable_coordinator_exits_nonzero(self, capsys):
        assert main(["status", "--coordinator", "127.0.0.1:1"]) == 1
        assert "status:" in capsys.readouterr().err

    def test_queue_transport_publishes_status_file(self, tmp_path):
        from repro.orchestrator import QueueTransport

        queue_dir = tmp_path / "q"
        queue = FileTaskQueue(queue_dir)
        queue.ensure_layout()
        transport = QueueTransport(queue_dir, poll=0.02, timeout=10.0)
        items = [(0, CONFIG, _digest(CONFIG))]

        import threading
        worker = threading.Thread(
            target=run_worker,
            args=(queue_dir,),
            kwargs={"poll": 0.02, "max_tasks": 1},
            daemon=True)
        worker.start()
        results = list(transport.run(items))
        worker.join(timeout=10)
        assert len(results) == 1
        status = json.loads((queue_dir / "status.json").read_text())
        assert status["kind"] == "queue-status"
        assert status["coordinator"]["enqueued"] == 1
        assert status["coordinator"]["outstanding"] == 0


# ---------------------------------------------------------------------------
# Worker summaries
# ---------------------------------------------------------------------------

class TestWorkerSummary:
    def test_compares_equal_to_processed_count(self):
        # Summaries compare field by field; callers read ``.processed``.
        summary = WorkerSummary("w", processed=3)
        assert summary == WorkerSummary("w", processed=3)
        assert summary != WorkerSummary("w", processed=2)
        assert summary != 3

    def test_describe_mentions_outcomes(self):
        summary = WorkerSummary("w1")
        summary.processed = 2
        summary.done = 1
        summary.failed = 1
        summary.heartbeats = 5
        text = summary.describe()
        assert "2 task(s)" in text
        assert "1 ok" in text
        assert "1 failed" in text
        assert "5 heartbeat(s)" in text

    def test_queue_worker_returns_summary(self, tmp_path):
        queue = FileTaskQueue(tmp_path / "q")
        queue.ensure_layout()
        queue.enqueue("000000-" + _digest(CONFIG), CONFIG.to_dict(),
                      _digest(CONFIG))
        summary = run_worker(tmp_path / "q", poll=0.02, max_tasks=1)
        assert summary.processed == 1
        assert summary.done == 1
        assert summary.failed == 0
        assert summary.last_task_failed is False

    def test_worker_cli_logs_summary_and_exits_nonzero_on_failure(
            self, tmp_path, capsys):
        queue = FileTaskQueue(tmp_path / "q")
        queue.ensure_layout()
        bad = {"algorithm": "no-such-algorithm", "family": "hexagon",
               "size": 2, "seed": 0}
        queue.enqueue("000000-bad", bad, "bad", max_attempts=1)
        code = main(["worker", str(tmp_path / "q"),
                     "--poll", "0.02", "--max-idle", "0.2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "exiting after 1 task(s)" in err
        assert "1 failed" in err

    def test_worker_cli_success_exits_zero_with_summary(self, tmp_path,
                                                        capsys):
        queue = FileTaskQueue(tmp_path / "q")
        queue.ensure_layout()
        queue.enqueue("000000-" + _digest(CONFIG), CONFIG.to_dict(),
                      _digest(CONFIG))
        code = main(["worker", str(tmp_path / "q"),
                     "--poll", "0.02", "--max-idle", "0.2"])
        err = capsys.readouterr().err
        assert code == 0
        assert "exiting after 1 task(s)" in err
        assert "1 ok" in err
        assert "heartbeat(s) sent" in err
