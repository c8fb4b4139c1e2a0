"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scaling_requires_known_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scaling", "magic"])

    def test_elect_defaults(self):
        args = build_parser().parse_args(["elect"])
        assert args.family == "holey"
        assert args.size == 3
        assert not args.known_boundary

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.seeds == [0]
        assert not args.resume

    def test_sweep_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--algorithms", "magic"])

    def test_sweep_capable_commands_share_jobs_default(self):
        sweep = build_parser().parse_args(["sweep"])
        table1 = build_parser().parse_args(["table1"])
        scaling = build_parser().parse_args(["scaling", "dle"])
        assert sweep.jobs == table1.jobs == scaling.jobs == 1


class TestCommands:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "hexagon" in out
        assert "annulus" in out

    def test_metrics(self, capsys):
        assert main(["metrics", "--family", "hexagon", "--size", "2"]) == 0
        out = capsys.readouterr().out
        assert "D_A" in out
        assert "19" in out  # n of a radius-2 hexagon

    def test_elect_known_boundary(self, capsys):
        code = main(["elect", "--family", "hexagon", "--size", "2",
                     "--known-boundary", "--render"])
        assert code == 0
        out = capsys.readouterr().out
        assert "leader point" in out
        assert "connected after  : True" in out
        assert "L" in out  # rendered leader glyph

    def test_elect_full_pipeline_no_reconnect(self, capsys):
        code = main(["elect", "--family", "hexagon", "--size", "2",
                     "--no-reconnect"])
        assert code == 0
        out = capsys.readouterr().out
        assert "'collect': 0" in out

    def test_table1_with_json_dump(self, capsys, tmp_path):
        path = tmp_path / "table1.json"
        code = main(["table1", "--sizes", "2", "--families", "hexagon",
                     "--json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "This paper" in out
        data = json.loads(path.read_text())
        assert len(data) > 0
        assert {"algorithm", "rounds", "metrics"} <= set(data[0])

    def test_scaling_command(self, capsys):
        code = main(["scaling", "dle", "--families", "hexagon",
                     "--sizes", "2", "3", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rounds vs D_A" in out
        assert "linear fit" in out

    def test_scaling_custom_parameter(self, capsys):
        code = main(["scaling", "obd", "--families", "hexagon",
                     "--sizes", "2", "3", "--parameter", "L_out"])
        assert code == 0
        assert "rounds vs L_out" in capsys.readouterr().out

    def test_sweep_command_with_json_dump(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code = main(["sweep", "--algorithms", "dle", "erosion",
                     "--families", "hexagon", "--sizes", "2",
                     "--seeds", "0", "1", "--quiet", "--json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep results" in out
        assert "4 runs" in out and "4 executed" in out
        data = json.loads(path.read_text())
        assert len(data) == 4
        assert {"algorithm", "rounds", "metrics"} <= set(data[0])

    def test_sweep_warm_cache_and_resume(self, capsys, tmp_path):
        argv = ["sweep", "--algorithms", "dle", "--families", "hexagon",
                "--sizes", "2", "3", "--quiet",
                "--cache-dir", str(tmp_path / "cache"),
                "--ledger", str(tmp_path / "ledger.jsonl")]
        assert main(argv) == 0
        assert "2 executed" in capsys.readouterr().out
        # Warm cache: nothing executes the second time.
        assert main(argv) == 0
        assert "2 cached" in capsys.readouterr().out
        # Resume from the ledger: nothing executes either.
        assert main(argv + ["--resume"]) == 0
        assert "2 resumed" in capsys.readouterr().out

    def test_sweep_resume_requires_ledger(self, capsys):
        assert main(["sweep", "--resume", "--quiet"]) == 2
        assert "--resume requires --ledger" in capsys.readouterr().err

    def test_sweep_progress_streams_to_stderr(self, capsys):
        assert main(["sweep", "--algorithms", "dle", "--families", "hexagon",
                     "--sizes", "2"]) == 0
        err = capsys.readouterr().err
        assert "[1/1] dle/hexagon size=2 seed=0: ok" in err

    @pytest.mark.parametrize("parameter", ["BOGUS", "family", "ok"])
    def test_sweep_rejects_non_numeric_parameter(self, capsys, parameter):
        code = main(["sweep", "--algorithms", "dle", "--families", "hexagon",
                     "--sizes", "2", "--parameter", parameter, "--quiet"])
        assert code == 2
        assert f"parameter {parameter!r}" in capsys.readouterr().err

    def test_sweep_exits_nonzero_when_runs_fail(self, capsys, monkeypatch):
        from repro.analysis import experiments

        def broken(shape, seed, order="random", engine="sweep",
                   checkpoint=None):
            raise RuntimeError("driver exploded")

        monkeypatch.setitem(experiments.ALGORITHMS, "dle", broken)
        code = main(["sweep", "--algorithms", "dle", "erosion",
                     "--families", "hexagon", "--sizes", "2", "--quiet"])
        assert code == 1
        captured = capsys.readouterr()
        assert "1 FAILED" in captured.out
        assert "driver exploded" in captured.err

    def test_sweep_with_parameter_fit(self, capsys):
        code = main(["sweep", "--algorithms", "dle", "--families", "hexagon",
                     "--sizes", "2", "3", "4", "--parameter", "D_A",
                     "--quiet"])
        assert code == 0
        assert "dle rounds vs D_A (hexagon)" in capsys.readouterr().out


class TestEngineFlag:
    def test_sweep_engine_default(self):
        args = build_parser().parse_args(["sweep"])
        assert args.engine == "sweep"

    def test_sweep_engine_choices(self):
        args = build_parser().parse_args(["sweep", "--engine", "event"])
        assert args.engine == "event"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--engine", "warp"])

    def test_sweep_event_engine_runs(self, capsys):
        code = main(["sweep", "--algorithms", "dle", "--families", "hexagon",
                     "--sizes", "2", "--engine", "event", "--quiet"])
        assert code == 0
        assert "sweep results" in capsys.readouterr().out

    def test_engine_changes_the_cache_key(self, capsys, tmp_path):
        base = ["sweep", "--algorithms", "dle", "--families", "hexagon",
                "--sizes", "2", "--quiet", "--cache-dir", str(tmp_path / "c")]
        assert main(base) == 0
        assert "1 executed" in capsys.readouterr().out
        # Same config under the other engine must not be served from cache.
        assert main(base + ["--engine", "event"]) == 0
        assert "1 executed" in capsys.readouterr().out
        # Re-running either engine hits its own cache entry.
        assert main(base + ["--engine", "event"]) == 0
        assert "1 cached" in capsys.readouterr().out

    def test_summary_json(self, capsys, tmp_path):
        path = tmp_path / "summary.json"
        code = main(["sweep", "--algorithms", "dle", "erosion",
                     "--families", "hexagon", "--sizes", "2", "--quiet",
                     "--summary-json", str(path)])
        assert code == 0
        summary = json.loads(path.read_text())
        assert summary["kind"] == "sweep-summary"
        assert summary["ok"] is True
        assert summary["counts"]["total"] == 2
        assert summary["counts"]["executed"] == 2
        assert summary["failures"] == []
        assert summary["spec"]["engine"] == "sweep"

    def test_summary_json_records_failures(self, tmp_path, capsys, monkeypatch):
        from repro.analysis import experiments

        def broken(shape, seed, order="random", engine="sweep",
                   checkpoint=None):
            raise RuntimeError("driver exploded")

        monkeypatch.setitem(experiments.ALGORITHMS, "dle", broken)
        path = tmp_path / "summary.json"
        code = main(["sweep", "--algorithms", "dle", "erosion",
                     "--families", "hexagon", "--sizes", "2", "--quiet",
                     "--summary-json", str(path)])
        assert code == 1
        summary = json.loads(path.read_text())
        assert summary["ok"] is False
        assert summary["counts"]["failed"] == 1
        assert any("dle/hexagon" in failure for failure in summary["failures"])


class TestBenchCommand:
    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert not args.quick
        assert args.repeats == 3
        assert args.max_regression == 0.25
        assert args.baseline is None

    def test_bench_only_filter_runs_and_writes_report(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        code = main(["bench", "--quick", "--repeats", "1",
                     "--only", "dle/hexagon/10", "--out", str(out), "--quiet"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "dle/hexagon/10/sweep" in printed
        assert "event-engine speedup" in printed
        data = json.loads(out.read_text())
        assert data["kind"] == "repro-bench"
        assert len(data["entries"]) == 2

    def test_bench_unknown_filter_errors(self, capsys, tmp_path):
        code = main(["bench", "--quick", "--only", "nonexistent",
                     "--out", str(tmp_path / "b.json"), "--quiet"])
        assert code == 2
        assert "no benchmark entries matched" in capsys.readouterr().err

    def test_bench_baseline_gate_passes_against_itself(self, capsys, tmp_path):
        # Best of three: a single ~10 ms timing on a loaded host can read
        # several times slower than the same code a moment earlier.
        out1 = tmp_path / "first.json"
        assert main(["bench", "--quick", "--repeats", "3",
                     "--only", "dle/hexagon/10", "--out", str(out1),
                     "--quiet"]) == 0
        capsys.readouterr()
        out2 = tmp_path / "second.json"
        code = main(["bench", "--quick", "--repeats", "3",
                     "--only", "dle/hexagon/10", "--out", str(out2),
                     "--baseline", str(out1), "--max-regression", "5.0",
                     "--quiet"])
        assert code == 0
        assert "baseline check ok" in capsys.readouterr().out

    def test_bench_baseline_gate_fails_on_regression(self, capsys, tmp_path):
        out1 = tmp_path / "first.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--only", "dle/hexagon/10", "--out", str(out1),
                     "--quiet"]) == 0
        # Shrink the baseline's normalized times so the rerun "regresses".
        data = json.loads(out1.read_text())
        for entry in data["entries"]:
            entry["normalized"] /= 100.0
        out1.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["bench", "--quick", "--repeats", "1",
                     "--only", "dle/hexagon/10", "--out",
                     str(tmp_path / "second.json"),
                     "--baseline", str(out1), "--quiet"])
        assert code == 1
        assert "regressed" in capsys.readouterr().err


class TestRunCommand:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "dle"
        assert args.checkpoint_dir is None
        assert args.resume_from is None

    def test_run_executes_one_config(self, capsys, tmp_path):
        out = tmp_path / "record.json"
        code = main(["run", "--algorithm", "dle", "--family", "hexagon",
                     "--size", "2", "--json", str(out)])
        assert code == 0
        assert "dle/hexagon size=2" in capsys.readouterr().out
        (record,) = json.loads(out.read_text())
        assert record["algorithm"] == "dle"
        assert record["succeeded"]

    def test_run_checkpoint_every_requires_dir(self, capsys):
        code = main(["run", "--checkpoint-every", "5"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_run_resume_from_missing_file_errors(self, capsys, tmp_path):
        code = main(["run", "--resume-from", str(tmp_path / "missing.json")])
        assert code == 2
        assert "no checkpoint" in capsys.readouterr().err

    def test_run_kill_then_resume_from(self, capsys, tmp_path):
        # Interrupt a checkpointing run, then finish it via --resume-from.
        from repro.session import Session

        class Kill(Exception):
            pass

        def bomb(rounds, path):
            raise Kill

        config = {"algorithm": "dle", "family": "holey", "size": 3,
                  "seed": 1, "scheduler": "random", "engine": "event"}
        with pytest.raises(Kill):
            Session.run(config, checkpoint_every=3,
                        checkpoint_dir=tmp_path, on_checkpoint=bomb)
        (checkpoint,) = tmp_path.glob("checkpoint-*.json")
        code = main(["run", "--resume-from", str(checkpoint)])
        assert code == 0
        assert "dle/holey size=3" in capsys.readouterr().out
        assert not checkpoint.exists()

    def test_sweep_checkpoint_every_requires_dir(self, capsys):
        code = main(["sweep", "--checkpoint-every", "5"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_sweep_with_checkpointing_runs_clean(self, capsys, tmp_path):
        code = main(["sweep", "--algorithms", "dle", "--families", "hexagon",
                     "--sizes", "2", "--checkpoint-every", "5",
                     "--checkpoint-dir", str(tmp_path / "ckpts"), "--quiet"])
        assert code == 0
        # Clean completion leaves no checkpoint files behind.
        assert list((tmp_path / "ckpts").glob("checkpoint-*")) == []


class TestStatusWatch:
    def _args(self, watch=0.01, as_json=False):
        import argparse

        return argparse.Namespace(coordinator="localhost:1", queue_dir=None,
                                  secret=None, watch=watch, json=as_json)

    def test_watch_survives_snapshot_errors(self, capsys):
        from repro.cli import _watch_status

        document = {"kind": "repro-status", "source": "tcp",
                    "target": "localhost:1", "board": {"pending": 1},
                    "workers": [], "stop": False}
        # Coordinator up, then restarting (two failures), then up again.
        outcomes = [document, ConnectionError("refused"),
                    OSError("unreachable"), document]

        def snapshot(args):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        def sleep(seconds):
            if not outcomes:
                raise KeyboardInterrupt

        code = _watch_status(self._args(), snapshot=snapshot, sleep=sleep)
        assert code == 130
        captured = capsys.readouterr()
        # Both successful polls rendered; the outage was reported once.
        assert captured.out.count("1 pending") == 2
        assert captured.err.count("retrying every") == 1
        assert "answering again" in captured.err

    def test_watch_stops_on_interrupt_during_poll(self):
        from repro.cli import _watch_status

        def snapshot(args):
            raise KeyboardInterrupt

        assert _watch_status(self._args(), snapshot=snapshot,
                             sleep=lambda s: None) == 130

    def test_watch_json_is_ndjson_one_document_per_tick(self, capsys):
        from repro.cli import _watch_status

        documents = [
            {"kind": "repro-status", "source": "tcp",
             "target": "localhost:1", "board": {"pending": tick},
             "workers": [], "stop": False}
            for tick in (2, 1, 0)]
        remaining = list(documents)

        def snapshot(args):
            return remaining.pop(0)

        def sleep(seconds):
            if not remaining:
                raise KeyboardInterrupt

        code = _watch_status(self._args(as_json=True), snapshot=snapshot,
                             sleep=sleep)
        assert code == 130
        lines = capsys.readouterr().out.splitlines()
        # One compact JSON document per tick — pipeable NDJSON, no
        # pretty-printing spread across lines.
        assert len(lines) == 3
        assert [json.loads(line) for line in lines] == documents
        assert all("\n" not in line and ": " not in line for line in lines)
