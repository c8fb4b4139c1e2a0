"""Tests for the ``repro.orchestrator`` sweep subsystem."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import experiments
from repro.io import records_to_dicts
from repro.orchestrator import (
    ResultCache,
    RunConfig,
    RunLedger,
    SweepSpec,
    config_digest,
    resolve_transport,
    run_sweep,
    scaling_spec,
    table1_spec,
)
from repro.session import Session

CONFIG = RunConfig(algorithm="dle", family="hexagon", size=2, seed=0)


def _subprocess_env():
    """Environment for helper subprocesses: make ``repro`` importable."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# Spec expansion
# ---------------------------------------------------------------------------

class TestSweepSpec:
    def test_expand_size_and_order(self):
        spec = SweepSpec(algorithms=["dle", "erosion"], families=["hexagon"],
                         sizes=[2, 3], seeds=[0, 1])
        configs = spec.expand()
        assert len(configs) == len(spec) == 8
        # Canonical nesting: family -> size -> seed -> algorithm.
        assert configs[0] == RunConfig("dle", "hexagon", 2, 0)
        assert configs[1] == RunConfig("erosion", "hexagon", 2, 0)
        assert configs[2] == RunConfig("dle", "hexagon", 2, 1)
        assert configs[-1] == RunConfig("erosion", "hexagon", 3, 1)

    def test_configs_are_hashable_and_round_trip(self):
        assert len({CONFIG, RunConfig("dle", "hexagon", 2, 0)}) == 1
        assert RunConfig.from_dict(CONFIG.to_dict()) == CONFIG

    @pytest.mark.parametrize("kwargs", [
        {"algorithms": ["frobnicate"]},
        {"families": ["klein-bottle"]},
        {"scheduler": "psychic"},
        {"engine": "warp"},
    ])
    def test_expand_validates(self, kwargs):
        base = {"algorithms": ["dle"], "families": ["hexagon"], "sizes": [2]}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SweepSpec(**base).expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(algorithms=[], families=["hexagon"], sizes=[2])

    def test_spec_round_trip(self):
        spec = table1_spec(sizes=[2, 3])
        assert SweepSpec.from_dict(spec.to_dict()).expand() == spec.expand()

    def test_scaling_spec_matches_serial_ladder(self):
        spec = scaling_spec("dle", "hexagon", [2, 3], seed=7)
        assert [c.size for c in spec.expand()] == [2, 3]
        assert all(c.seed == 7 for c in spec.expand())

    def test_engine_is_part_of_the_config(self):
        spec = SweepSpec(algorithms=["dle"], families=["hexagon"], sizes=[2],
                         engine="event")
        configs = spec.expand()
        assert all(c.engine == "event" for c in configs)
        assert SweepSpec.from_dict(spec.to_dict()).engine == "event"
        # Old serialised configs (pre-engine) default to the sweep engine.
        legacy = {"algorithm": "dle", "family": "hexagon", "size": 2,
                  "seed": 0}
        assert RunConfig.from_dict(legacy).engine == "sweep"
        assert "engine=event" in configs[0].describe()


# ---------------------------------------------------------------------------
# Content-addressed cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_digest_stable_and_sensitive(self):
        digest = config_digest(CONFIG, "v1")
        assert digest == config_digest(RunConfig("dle", "hexagon", 2, 0), "v1")
        mutations = [
            RunConfig("erosion", "hexagon", 2, 0),
            RunConfig("dle", "holey", 2, 0),
            RunConfig("dle", "hexagon", 3, 0),
            RunConfig("dle", "hexagon", 2, 1),
            RunConfig("dle", "hexagon", 2, 0, scheduler="reversed"),
            RunConfig("dle", "hexagon", 2, 0, engine="event"),
        ]
        assert len({config_digest(m, "v1") for m in mutations} | {digest}) == 7
        assert config_digest(CONFIG, "v2") != digest

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(CONFIG) is None
        record = Session.run(CONFIG).record
        cache.put(CONFIG, record)
        assert CONFIG in cache
        reloaded = cache.get(CONFIG)
        assert records_to_dicts([reloaded]) == records_to_dicts([record])
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_mutated_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(CONFIG, Session.run(CONFIG).record)
        assert RunConfig("dle", "hexagon", 2, 1) not in cache
        assert cache.get(RunConfig("dle", "hexagon", 2, 1)) is None

    def test_code_version_invalidates(self, tmp_path):
        old = ResultCache(tmp_path / "cache", code_version="v1")
        old.put(CONFIG, Session.run(CONFIG).record)
        assert CONFIG not in ResultCache(tmp_path / "cache", code_version="v2")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        # A complete line that keeps its digest but no longer parses is
        # indexed, and reading it is a miss; a later put supersedes it.
        cache = ResultCache(tmp_path / "cache")
        record = Session.run(CONFIG).record
        cache.put(CONFIG, record)
        line = cache.path.read_bytes()
        cache.path.write_bytes(line[:100] + b"{not json\n")
        assert cache.get(CONFIG) is None
        fresh = ResultCache(tmp_path / "cache")
        assert CONFIG not in fresh and fresh.get(CONFIG) is None
        fresh.put(CONFIG, record)
        again = ResultCache(tmp_path / "cache").get(CONFIG)
        assert records_to_dicts([again]) == records_to_dicts([record])

    def test_torn_last_line_is_a_miss(self, tmp_path):
        # A writer killed mid-append leaves half a line: it is never read
        # as an entry, and an entry put after it is found by a fresh cache.
        cache = ResultCache(tmp_path / "cache")
        cache.put(CONFIG, Session.run(CONFIG).record)
        whole = cache.path.read_bytes()
        cache.path.write_bytes(whole[:len(whole) // 2])
        assert ResultCache(tmp_path / "cache").get(CONFIG) is None
        other = RunConfig("dle", "hexagon", 2, 1)
        other_record = Session.run(other).record
        cache.put(other, other_record)
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get(CONFIG) is None
        got = fresh.get(other)
        assert records_to_dicts([got]) == records_to_dicts([other_record])
        assert fresh.stats() == {"hits": 1, "misses": 1, "entries": 2}

    def test_old_layout_entry_is_not_served(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = cache.digest(CONFIG)
        old = tmp_path / "cache" / digest[:2] / f"{digest}.json"
        old.parent.mkdir(parents=True)
        old.write_text(json.dumps({
            "kind": "sweep-cache-entry", "digest": digest,
            "code": cache.code_version, "config": CONFIG.to_dict(),
            "record": records_to_dicts([Session.run(CONFIG).record])[0]}))
        assert cache.get(CONFIG) is None
        assert CONFIG not in cache and len(cache) == 0

    def test_concurrent_appender_never_exposes_partial_entry(self, tmp_path):
        # Another process appends entries in a tight loop while fresh
        # caches scan the log: a line still being written is never
        # indexed, so every read is the complete, correct record.
        root = tmp_path / "cache"
        cache = ResultCache(root, code_version="race")
        record = Session.run(CONFIG).record
        expected = records_to_dicts([record])
        cache.put(CONFIG, record)
        script = (
            "import sys\n"
            "from repro.orchestrator import ResultCache, RunConfig\n"
            "from repro.session import Session\n"
            "config = RunConfig('dle', 'hexagon', 2, 0)\n"
            "cache = ResultCache(sys.argv[1], code_version='race')\n"
            "record = Session.run(config).record\n"
            "for _ in range(2000):\n"
            "    cache.put(config, record)\n"
        )
        writer = subprocess.Popen(
            [sys.executable, "-c", script, str(root)], env=_subprocess_env())
        try:
            reads = 0
            while writer.poll() is None:
                got = ResultCache(root, code_version="race").get(CONFIG)
                assert got is not None, "reader saw a missing/partial entry"
                assert records_to_dicts([got]) == expected
                reads += 1
            assert writer.wait(timeout=120) == 0
            assert reads > 0
        finally:
            if writer.poll() is None:
                writer.kill()
        assert len(cache.path.read_bytes().splitlines()) == 2001
        # Every line holds the same digest: one entry.
        assert len(ResultCache(root, code_version="race")) == 1

    def test_two_sweeps_share_one_root(self, tmp_path):
        # Two processes sweep the same configs into one root at once; both
        # get the records of a jobs=1 run, and a third sweep is all hits.
        spec = SweepSpec(algorithms=["dle", "erosion"],
                         families=["hexagon", "line"], sizes=[1, 2],
                         seeds=[0, 1])
        reference = records_to_dicts(run_sweep(spec, jobs=1).records)
        script = (
            "import json, sys\n"
            "from repro.io import records_to_dicts\n"
            "from repro.orchestrator import SweepSpec, run_sweep\n"
            "spec = SweepSpec.from_dict(json.loads(sys.argv[2]))\n"
            "result = run_sweep(spec, jobs=1, cache=sys.argv[1])\n"
            "print(json.dumps(records_to_dicts(result.records)))\n"
        )
        root = tmp_path / "cache"
        sweeps = [subprocess.Popen(
            [sys.executable, "-c", script, str(root),
             json.dumps(spec.to_dict())],
            env=_subprocess_env(), stdout=subprocess.PIPE, text=True)
            for _ in range(2)]
        try:
            outputs = [sweep.communicate(timeout=120)[0] for sweep in sweeps]
        finally:
            for sweep in sweeps:
                if sweep.poll() is None:
                    sweep.kill()
        assert [sweep.returncode for sweep in sweeps] == [0, 0]
        for output in outputs:
            assert json.loads(output) == reference
        third = run_sweep(spec, jobs=1, cache=ResultCache(root))
        assert third.counts()["cached"] == len(spec)
        assert records_to_dicts(third.records) == reference


# ---------------------------------------------------------------------------
# Run ledger
# ---------------------------------------------------------------------------

class TestRunLedger:
    def test_jsonl_record_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        record = Session.run(CONFIG).record
        ledger.append("d1", CONFIG, "done",
                      record_dict=records_to_dicts([record])[0], elapsed=0.5)
        ledger.append("d2", CONFIG, "failed", error="boom")
        assert ledger.completed_digests() == {"d1"}
        assert records_to_dicts(ledger.records()) == records_to_dicts([record])
        assert len(ledger) == 2

    def test_tolerates_truncated_final_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        record = Session.run(CONFIG).record
        ledger.append("d1", CONFIG, "done",
                      record_dict=records_to_dicts([record])[0])
        with path.open("a") as handle:
            handle.write('{"kind": "sweep-run", "digest": "d2", "stat')
        assert ledger.completed_digests() == {"d1"}

    def test_append_after_torn_final_line_is_kept(self, tmp_path):
        # The next append starts a new line instead of gluing itself onto
        # the fragment, so the torn entry is the only one lost.
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append("d1", CONFIG, "done", record_dict={"i": 1})
        with path.open("a") as handle:
            handle.write('{"kind": "sweep-run", "digest": "d2", "stat')
        ledger.append("d3", CONFIG, "done", record_dict={"i": 3})
        assert [entry["digest"] for entry in ledger.entries()] == ["d1", "d3"]

    def test_rejects_unknown_status(self, tmp_path):
        with pytest.raises(ValueError):
            RunLedger(tmp_path / "l.jsonl").append("d", CONFIG, "maybe")

    def test_records_deduplicated_by_digest(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        record_dict = records_to_dicts([Session.run(CONFIG).record])[0]
        # A config completed in one sweep and cache-served in a later one
        # appears twice in the ledger but is one measurement.
        ledger.append("d1", CONFIG, "done", record_dict=record_dict)
        ledger.append("d1", CONFIG, "done", record_dict=record_dict)
        assert len(ledger) == 2
        assert len(ledger.records()) == 1

    def test_digestless_entries_are_not_collapsed(self, tmp_path):
        # Regression: entries with a missing (or empty) digest used to all
        # share the "" dedup key, so every digestless measurement after the
        # first was silently dropped.
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        record_dict = records_to_dicts([Session.run(CONFIG).record])[0]
        ledger.append("d1", CONFIG, "done", record_dict=record_dict)
        with path.open("a") as handle:
            for _ in range(2):  # externally-written lines without a digest
                entry = {"kind": "sweep-run", "status": "done",
                         "record": record_dict}
                handle.write(json.dumps(entry) + "\n")
        assert len(ledger) == 3
        assert len(ledger.records()) == 3

    def test_concurrent_appenders_tear_no_lines(self, tmp_path):
        # Two processes hammering append() on the same file: every line
        # must stay parseable and none may be lost (single O_APPEND write
        # per entry, plus an advisory lock).
        path = tmp_path / "ledger.jsonl"
        per_writer, writers = 150, 2
        script = (
            "import sys\n"
            "from repro.orchestrator import RunConfig, RunLedger\n"
            "config = RunConfig('dle', 'hexagon', 2, 0)\n"
            "ledger = RunLedger(sys.argv[1])\n"
            "for i in range(int(sys.argv[3])):\n"
            "    ledger.append(f'{sys.argv[2]}-{i}', config, 'done',\n"
            "                  record_dict={'writer': sys.argv[2], 'i': i})\n"
        )
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(path), f"w{n}",
             str(per_writer)], env=_subprocess_env()) for n in range(writers)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        raw_lines = [line for line in path.read_text().splitlines() if line]
        assert len(raw_lines) == per_writer * writers
        parsed = [json.loads(line) for line in raw_lines]  # raises if torn
        assert len({entry["digest"] for entry in parsed}) == len(parsed)

    def test_failures_report_attempt_counts(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append("d1", CONFIG, "failed", error="boom", attempts=1)
        ledger.append("d1", CONFIG, "failed", error="boom again", attempts=2)
        failures = ledger.failures()
        assert failures["d1"]["attempts"] == 2
        assert failures["d1"]["error"] == "boom again"
        # Ledgers written before attempts were recorded fall back to
        # counting failed lines.
        legacy = RunLedger(tmp_path / "legacy.jsonl")
        legacy.append("d2", CONFIG, "failed", error="old")
        legacy.append("d2", CONFIG, "failed", error="old")
        assert legacy.failures()["d2"]["attempts"] == 2


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------

def _counting_driver(counter):
    def driver(shape, seed, order="random", engine="sweep"):
        counter["runs"] += 1
        return {"rounds": 1, "succeeded": True}
    return driver


@pytest.fixture
def counted_algorithm(monkeypatch):
    """A fake registered algorithm that counts its executions."""
    counter = {"runs": 0}
    monkeypatch.setitem(experiments.ALGORITHMS, "counted",
                        _counting_driver(counter))
    return counter


SPEC = SweepSpec(algorithms=["counted"], families=["hexagon"],
                 sizes=[2], seeds=[0, 1, 2, 3])


class TestRunSweep:
    def test_serial_matches_direct_execution(self):
        spec = SweepSpec(algorithms=["dle", "erosion"], families=["hexagon"],
                         sizes=[2], seeds=[0, 1])
        swept = run_sweep(spec, jobs=1).records
        direct = [Session.run(c).record for c in spec.expand()]
        assert records_to_dicts(swept) == records_to_dicts(direct)

    def test_parallel_matches_serial(self):
        spec = SweepSpec(algorithms=["dle", "erosion"], families=["hexagon"],
                         sizes=[2, 3], seeds=[0])
        serial = run_sweep(spec, jobs=1).records
        parallel = run_sweep(spec, jobs=4).records
        assert records_to_dicts(parallel) == records_to_dicts(serial)

    def test_warm_cache_executes_nothing(self, tmp_path, counted_algorithm):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(SPEC, jobs=1, cache=cache)
        assert counted_algorithm["runs"] == 4
        assert cold.counts()["executed"] == 4
        warm = run_sweep(SPEC, jobs=1, cache=cache)
        assert counted_algorithm["runs"] == 4  # nothing re-ran
        assert warm.counts()["cached"] == 4
        assert records_to_dicts(warm.records) == records_to_dicts(cold.records)

    def test_resume_skips_completed_configs(self, tmp_path, counted_algorithm):
        ledger_path = tmp_path / "ledger.jsonl"
        run_sweep(SPEC, jobs=1, ledger=str(ledger_path))
        assert counted_algorithm["runs"] == 4

        # Simulate an interrupt: keep only the first two completed lines.
        lines = ledger_path.read_text().splitlines()[:2]
        ledger_path.write_text("\n".join(lines) + "\n")

        resumed = run_sweep(SPEC, jobs=1, ledger=str(ledger_path), resume=True)
        assert counted_algorithm["runs"] == 6  # only the 2 missing ran
        counts = resumed.counts()
        assert counts["resumed"] == 2 and counts["executed"] == 2
        assert len(resumed.records) == 4
        # The ledger is now complete: a further resume executes nothing.
        again = run_sweep(SPEC, jobs=1, ledger=str(ledger_path), resume=True)
        assert counted_algorithm["runs"] == 6
        assert again.counts()["resumed"] == 4

    def test_resume_requires_ledger(self):
        with pytest.raises(ValueError):
            run_sweep(SPEC, resume=True)

    def test_accepts_pathlib_cache_and_ledger(self, tmp_path,
                                              counted_algorithm):
        result = run_sweep(SPEC, jobs=1, cache=tmp_path / "cache",
                           ledger=tmp_path / "ledger.jsonl")
        assert result.counts()["executed"] == 4
        assert (tmp_path / "ledger.jsonl").is_file()
        assert run_sweep(SPEC, jobs=1,
                         cache=tmp_path / "cache").counts()["cached"] == 4

    def test_failures_are_captured_not_fatal(self, tmp_path, monkeypatch):
        def flaky(shape, seed, order="random", engine="sweep"):
            if seed == 1:
                raise RuntimeError("synthetic failure")
            return {"rounds": 1, "succeeded": True}

        monkeypatch.setitem(experiments.ALGORITHMS, "flaky", flaky)
        spec = SweepSpec(algorithms=["flaky"], families=["hexagon"],
                         sizes=[2], seeds=[0, 1, 2])
        ledger_path = tmp_path / "ledger.jsonl"
        result = run_sweep(spec, jobs=1, ledger=str(ledger_path))
        assert result.counts()["failed"] == 1
        assert len(result.records) == 2
        assert "synthetic failure" in result.failures[0].error
        with pytest.raises(RuntimeError):
            result.raise_failures()
        # Failed runs are not marked done, so a resume retries them.
        ledger = RunLedger(ledger_path)
        assert len(ledger.completed_digests()) == 2

    def test_failures_never_cached(self, tmp_path, monkeypatch):
        calls = {"n": 0}

        def always_fails(shape, seed, order="random", engine="sweep"):
            calls["n"] += 1
            raise RuntimeError("nope")

        monkeypatch.setitem(experiments.ALGORITHMS, "bad", always_fails)
        spec = SweepSpec(algorithms=["bad"], families=["hexagon"], sizes=[2])
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, jobs=1, cache=cache)
        run_sweep(spec, jobs=1, cache=cache)
        assert calls["n"] == 2  # second sweep re-ran the failure
        assert len(cache) == 0

    def test_resume_gives_up_after_max_attempts(self, tmp_path, monkeypatch):
        calls = {"n": 0}

        def always_fails(shape, seed, order="random", engine="sweep"):
            calls["n"] += 1
            raise RuntimeError("deterministic failure")

        monkeypatch.setitem(experiments.ALGORITHMS, "bad", always_fails)
        spec = SweepSpec(algorithms=["bad"], families=["hexagon"], sizes=[2])
        ledger_path = tmp_path / "ledger.jsonl"

        run_sweep(spec, jobs=1, ledger=str(ledger_path))
        for expected_attempts in (2, 3):
            result = run_sweep(spec, jobs=1, ledger=str(ledger_path),
                               resume=True, max_attempts=3)
            assert calls["n"] == expected_attempts
            assert result.counts()["gave-up"] == 0
        ledger = RunLedger(ledger_path)
        assert ledger.failures()[next(iter(ledger.failures()))]["attempts"] == 3

        # Attempt budget spent: the next resume refuses to re-run.
        size_before = len(ledger)
        result = run_sweep(spec, jobs=1, ledger=str(ledger_path),
                           resume=True, max_attempts=3)
        assert calls["n"] == 3  # nothing re-ran
        counts = result.counts()
        assert counts["gave-up"] == 1 and counts["failed"] == 1
        assert result.failures[0].gave_up
        assert "gave up after 3 failed attempts" in result.failures[0].error
        assert "deterministic failure" in result.failures[0].error
        # Giving up does not append (the attempt count only grows on runs).
        assert len(ledger) == size_before

        # The give-up is surfaced in the sweep report.
        from repro.orchestrator import format_sweep_summary
        assert "1 gave up" in format_sweep_summary(result)

        # max_attempts=None keeps the historical retry-forever behaviour.
        result = run_sweep(spec, jobs=1, ledger=str(ledger_path),
                           resume=True, max_attempts=None)
        assert calls["n"] == 4

    def test_sweep_without_failures_never_reads_them(self, tmp_path,
                                                      counted_algorithm,
                                                      monkeypatch):
        def refuse(self):
            raise AssertionError("RunLedger.failures read by a clean sweep")

        monkeypatch.setattr(RunLedger, "failures", refuse)
        ledger_path = tmp_path / "ledger.jsonl"
        for _ in range(2):  # over an empty ledger, then a populated one
            result = run_sweep(SPEC, jobs=1, ledger=ledger_path)
            assert result.counts()["failed"] == 0
        assert len(RunLedger(ledger_path)) == 8

    def test_fresh_sweep_counts_earlier_failures(self, tmp_path,
                                                 monkeypatch):
        # Without --resume the ledger's failures are read when the first
        # failed line is written, so the attempt count still accumulates.
        def always_fails(shape, seed, order="random", engine="sweep"):
            raise RuntimeError("nope")

        monkeypatch.setitem(experiments.ALGORITHMS, "bad", always_fails)
        spec = SweepSpec(algorithms=["counted", "bad"], families=["hexagon"],
                         sizes=[2])
        monkeypatch.setitem(experiments.ALGORITHMS, "counted",
                            _counting_driver({"runs": 0}))
        ledger_path = tmp_path / "ledger.jsonl"
        for _ in range(2):
            run_sweep(spec, jobs=1, ledger=ledger_path)
        failed = [entry for entry in RunLedger(ledger_path).entries()
                  if entry["status"] == "failed"]
        assert [entry["attempts"] for entry in failed] == [1, 2]

    def test_ledger_is_written_in_spec_order_for_any_transport(self, tmp_path):
        from repro.orchestrator import default_code_version

        spec = SweepSpec(algorithms=["dle", "erosion"], families=["hexagon"],
                         sizes=[2, 3], seeds=[0])
        expected = [config_digest(c, default_code_version())
                    for c in spec.expand()]
        for name, jobs in (("serial", 1), ("parallel", 4)):
            ledger = RunLedger(tmp_path / f"{name}.jsonl")
            run_sweep(spec, jobs=jobs, ledger=ledger)
            assert [e["digest"] for e in ledger.entries()] == expected

    def test_explicit_transport_names(self, tmp_path):
        spec = SweepSpec(algorithms=["dle"], families=["hexagon"], sizes=[2],
                         seeds=[0, 1])
        inline = run_sweep(spec, transport="inline").records
        process = run_sweep(spec, transport="process", jobs=2).records
        assert records_to_dicts(inline) == records_to_dicts(process)
        with pytest.raises(ValueError, match="queue directory"):
            run_sweep(spec, transport="queue")
        with pytest.raises(ValueError, match="coordinator address"):
            run_sweep(spec, transport="tcp")
        with pytest.raises(ValueError, match="unknown transport"):
            run_sweep(spec, transport="carrier-pigeon")

    def test_transport_registry_is_the_single_source_of_truth(self):
        from repro.orchestrator import TRANSPORT_HELP, TRANSPORTS
        from repro.cli import build_parser

        assert list(TRANSPORTS) == ["inline", "process", "queue", "tcp"]
        assert set(TRANSPORT_HELP) == set(TRANSPORTS)
        # The CLI's --transport choices are derived from the registry, not
        # from a duplicated literal list.
        parser = build_parser()
        sweep = next(a for a in parser._subparsers._group_actions[0]
                     .choices["sweep"]._actions
                     if "--transport" in getattr(a, "option_strings", ()))
        assert sweep.choices == list(TRANSPORTS)

    def test_unknown_transport_raises_before_any_backend_is_built(self,
                                                                  monkeypatch):
        # A typo plus backend options must fail on the name alone — no
        # pool is spawned, no socket opened, no directory created.
        from repro.orchestrator import transport as transport_module

        def exploding_factory(**_kwargs):
            raise AssertionError("a backend was constructed")

        for name in transport_module.TRANSPORTS:
            monkeypatch.setitem(transport_module.TRANSPORTS, name,
                                exploding_factory)
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("quue", queue_dir="/tmp/somewhere")
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("tpc", coordinator="localhost:1")

    def test_non_string_transport_objects_pass_through(self):
        class FakeTransport:
            def run(self, items):
                return iter(())

        fake = FakeTransport()
        assert resolve_transport(fake) is fake
        with pytest.raises(TypeError, match="not a transport"):
            resolve_transport(object())

    def test_progress_callback_streams_every_config(self):
        seen = []
        run_sweep(SweepSpec(algorithms=["dle"], families=["hexagon"],
                            sizes=[2], seeds=[0, 1]),
                  progress=lambda done, total, result:
                      seen.append((done, total, result.ok)))
        assert seen == [(1, 2, True), (2, 2, True)]

    def test_scheduler_order_changes_the_run(self):
        base = RunConfig("dle", "hexagon", 3, 0)
        reversed_ = RunConfig("dle", "hexagon", 3, 0, scheduler="reversed")
        a = Session.run(base).record
        b = Session.run(reversed_).record
        assert a.succeeded and b.succeeded
        # Same experiment, different adversary: the records must not be
        # conflated by the cache.
        assert (config_digest(base, "v") != config_digest(reversed_, "v"))


# ---------------------------------------------------------------------------
# Thin front-ends stay equivalent to the historical serial loops
# ---------------------------------------------------------------------------

class TestFrontEnds:
    def test_run_scaling_experiment_unchanged_shape(self):
        records = experiments.run_scaling_experiment("dle", "hexagon", [2, 3])
        assert [r.size for r in records] == [2, 3]
        assert all(r.algorithm == "dle" and r.family == "hexagon"
                   for r in records)

    def test_run_table1_experiment_layout(self):
        records = experiments.run_table1_experiment(
            sizes=[2], families=["hexagon"])
        assert len(records) == len(experiments.TABLE1_ALGORITHMS)
        assert [r.algorithm for r in records] == list(
            experiments.TABLE1_ALGORITHMS)

    def test_front_end_raises_on_failure(self, monkeypatch):
        def always_fails(shape, seed, order="random", engine="sweep"):
            raise RuntimeError("driver exploded")

        monkeypatch.setitem(experiments.ALGORITHMS, "dle", always_fails)
        with pytest.raises(RuntimeError, match="driver exploded"):
            experiments.run_scaling_experiment("dle", "hexagon", [2])

    def test_front_end_preserves_exception_type(self, monkeypatch):
        def raises_value_error(shape, seed, order="random", engine="sweep"):
            raise ValueError("bad input")

        monkeypatch.setitem(experiments.ALGORITHMS, "dle", raises_value_error)
        # jobs=1 runs in-process, so the original exception object survives,
        # matching the historical serial-loop behaviour.
        with pytest.raises(ValueError, match="bad input"):
            experiments.run_scaling_experiment("dle", "hexagon", [2])
