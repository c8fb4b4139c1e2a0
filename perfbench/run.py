"""Sweep-cell benchmark: whole sweep cells through ``repro.orchestrator.run_sweep``.

Run from the repository root::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 50 --trace 0

Each timed pass starts a fresh interpreter (``sweep_child.py``), runs a
cold sweep into an empty result cache and ledger, then warm re-sweeps
against that cache.  Passes repeat until ``--seconds`` have elapsed (at
least three with ``--trace 0``).  A cell's time is the gap that ends at
the sweep's ``progress`` callback for it, so it includes the cache put,
the ledger append and the transport's dispatch.  Timings are the
fastest over passes (per cell, for the per-cell median and tail), set-up
time and memory are medians over passes, and per-layer figures are
medians over traced passes.

``--trace 0`` prints the end-to-end metrics: set-up time, cold-sweep
throughput, per-cell median and tail, warm re-sweep throughput and peak
RSS.  ``--trace 1`` prints the per-layer metrics from a traced pass
(spans wrapped around each layer's public functions by ``tracer.py``),
next to an untraced pass of the same cells for the tracing overhead and,
on the workload's own transport, the transport overhead.

Every cell of every pass is checked against ``expected.json``, the
expected record digest of every cell a seed can reach; a cell that raised
or whose record differs counts as failed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``make_expected.py`` rewrites ``expected.json`` and
``selftest.py`` checks this script at toy sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Where passes keep their caches and ledgers, under the checkout.
WORK_DIR = ".perfbench_work"
MIN_PASSES = 3
#: A pass that takes longer than this is treated as hung.
PASS_TIMEOUT_S = 150.0
#: How far the layer self times may sum from the traced wall time.  What
#: ``run_sweep`` does outside the named layers (result assembly, events,
#: reading the ledger's failures) is not covered; on tiny-process, where a
#: cell is about 2 ms, that is 3-4% of the traced wall.
COVERAGE_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "rerun_cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "grid.make_shape_s": "s",
    "grid.make_shape_calls": "count",
    "grid.compute_metrics_s": "s",
    "grid.compute_metrics_calls": "count",
    "grid.compute_metrics_points": "count",
    "grid.compute_metrics_share": "ratio",
    "amoebot.from_shape_s": "s",
    "amoebot.scheduler_s": "s",
    "amoebot.rounds": "count",
    "amoebot.activations": "count",
    "amoebot.activation_ratio": "ratio",
    "core.obd_s": "s",
    "core.obd_rounds": "count",
    "core.dle_s": "s",
    "core.dle_rounds": "count",
    "core.collect_s": "s",
    "core.collect_rounds": "count",
    "core.pipeline_self_s": "s",
    "baselines.erosion_s": "s",
    "baselines.randomized_s": "s",
    "record.self_s": "s",
    "io.records_to_dicts_s": "s",
    "session.self_s": "s",
    "orchestrator.transport_self_s": "s",
    "orchestrator.config_digest_s": "s",
    "orchestrator.cache_get_s": "s",
    "orchestrator.cache_put_s": "s",
    "orchestrator.cache_hit_ratio": "ratio",
    "orchestrator.ledger_append_s": "s",
    "orchestrator.ledger_bytes": "B",
    "orchestrator.transport_overhead_s": "s",
    "orchestrator.worker_busy_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class PassFailed(RuntimeError):
    """A benchmark pass could not run; no result is printed."""


def tail_index(cells: int) -> int:
    """Index (ascending) of the highest-ranked cell time that still has at
    least ten cells beyond it; the smallest sweep's slowest cell under 11."""
    return max(0, cells - 11)


def tail_percentile(cells: int) -> float:
    """The percentile :func:`tail_index` reports, for ``cells`` per sweep."""
    return 100.0 * (tail_index(cells) + 1) / cells


class Bench:
    """Runs the passes of one workload and checks their records."""

    def __init__(self, root: Path, workload: str, seed: int, toy: bool,
                 expected: Dict[str, List[str]]) -> None:
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.toy = toy
        self.expected = expected
        self.work = root / WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.passes = 0
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def run_pass(self, *, trace: bool = False,
                 transport: Optional[str] = None) -> Dict[str, Any]:
        """Run one pass in a fresh interpreter and return its outcome."""
        self.passes += 1
        work = self.work / f"pass{self.passes}"
        work.mkdir()
        out = work / "outcome.json"
        command = [sys.executable, str(HERE / "sweep_child.py"),
                   "--workload", self.workload.name, "--seed", str(self.seed),
                   "--work", str(work), "--out", str(out)]
        if self.toy:
            command.append("--toy")
        if trace:
            command.append("--trace")
        if transport is not None:
            command += ["--transport", transport]
        # A fixed hash seed gives every pass the same set and dict orders;
        # TMPDIR keeps multiprocessing's temporary files in the checkout.
        env = dict(os.environ, TMPDIR=str(self.work / "tmp"),
                   PYTHONHASHSEED="0")
        command += ["--started", repr(time.monotonic())]
        try:
            completed = subprocess.run(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"pass timed out after {exc.timeout:.0f} s") from exc
        if completed.returncode != 0 or not out.is_file():
            raise PassFailed(f"pass exited {completed.returncode}:\n"
                             f"{completed.stderr[-2000:]}")
        outcome: Dict[str, Any] = json.loads(out.read_text())
        shutil.rmtree(work)
        self.check(outcome)
        return outcome

    def check(self, outcome: Dict[str, Any]) -> None:
        """Count every cell of every sweep in ``outcome`` against
        ``expected.json``; a cell that raised reads ``"error"``."""
        cell_ids = outcome["cell_ids"]
        self.cells = len(cell_ids)
        want = []
        for key, run_seed in cell_ids:
            column = self.expected.get(key, [])
            want.append(column[run_seed] if run_seed < len(column)
                        else "missing")
        for got in [outcome["cold_digests"]] + outcome["warm_digests"]:
            wrong = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
            self.attempted += len(want)
            self.failed += len(wrong)
            if wrong:
                key, run_seed = cell_ids[wrong[0]]
                self.problems.append(
                    f"{len(wrong)} cell(s) differ from the expected records, "
                    f"first {key} seed {run_seed}: {got[wrong[0]]} != "
                    f"{want[wrong[0]]}")
        if outcome["cold_errors"]:
            self.problems.append("cells raised: "
                                 + "; ".join(outcome["cold_errors"]))
        if not outcome["warm_all_cached"]:
            self.problems.append("a warm re-sweep executed cells")
        if not outcome["ledger_lines_ok"]:
            self.problems.append("a ledger does not hold one line per cell "
                                 "per sweep")


def repeat(seconds: float, minimum: int,
           one: Callable[[], Any]) -> List[Any]:
    """Call ``one`` until ``seconds`` have passed, at least ``minimum``
    times."""
    started = time.monotonic()
    results: List[Any] = []
    while len(results) < minimum or time.monotonic() - started < seconds:
        results.append(one())
    return results


def end_to_end(bench: Bench, seconds: float) -> Dict[str, float]:
    """Set-up time is the median over the passes' interpreters.

    Timings take the fastest of the passes: interference from other work on
    a shared machine only ever adds time, so the fastest is the steadiest
    estimate of the program's own cost.  Each cell runs cold once per
    pass, so a cell's time is its fastest delivery gap, and the median and
    tail are taken over cells.  Re-sweep throughput uses the fastest warm re-sweep.
    """
    passes = repeat(seconds, MIN_PASSES, bench.run_pass)
    cells = passes[0]["cells"]
    fastest_cells = sorted(min(runs) for runs in
                           zip(*(p["cold_cell_s"] for p in passes)))
    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "cells_per_s": max(cells / p["cold_wall"] for p in passes),
        "cell_p50_s": statistics.median(fastest_cells),
        "cell_tail_s": fastest_cells[tail_index(cells)],
        "rerun_cells_per_s": max(cells / min(p["warm_walls"])
                                 for p in passes),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes)
                        + own_rss_kb) / 1024.0,
    }


def per_layer(bench: Bench, seconds: float) -> Dict[str, float]:
    """Median per-layer figures over repeated (untraced, traced) pairs of
    inline passes, plus an untraced pass on the workload's own transport
    when that is not inline."""
    own_transport = bench.workload.transport
    walls: Dict[str, List[float]] = {"plain": [], "traced": []}

    def one() -> Dict[str, float]:
        plain = bench.run_pass(transport="inline")
        traced = bench.run_pass(transport="inline", trace=True)
        native = (plain if own_transport == "inline"
                  else bench.run_pass(transport=own_transport))
        if traced["cold_digests"] != plain["cold_digests"]:
            bench.problems.append("traced records differ from untraced ones")
        walls["plain"].append(plain["cold_wall"])
        walls["traced"].append(traced["cold_wall"])
        return layer_metrics(traced, native)

    rows = repeat(seconds, 1, one)
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    # Fastest against fastest, as for the end-to-end timings.
    metrics["trace.overhead"] = min(walls["traced"]) / min(walls["plain"]) - 1
    if abs(metrics["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        bench.problems.append(f"layer self times cover "
                              f"{metrics['trace.coverage']:.3f} of the "
                              f"traced wall time")
    return metrics


def layer_metrics(traced: Dict[str, Any],
                  native: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer figures of one traced pass (cold sweep plus one warm
    re-sweep); ``native`` is an untraced pass on the workload's own
    transport.  ``trace.overhead`` is filled in by the caller."""
    layers = traced["layers"]
    counters = traced["counters"]
    wall = traced["traced_wall"]

    def total(name: str) -> float:
        return layers.get(name, {}).get("total", 0.0)

    def own(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0)

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    busy = sum(native["cold_elapsed"])
    workers = native["jobs"]
    gets = counters.get("orchestrator.cache_gets", 0.0)
    particle_rounds = counters.get("amoebot.particle_rounds", 0.0)
    metrics = {
        "grid.make_shape_s": total("grid.make_shape"),
        "grid.make_shape_calls": calls("grid.make_shape"),
        "grid.compute_metrics_s": total("grid.compute_metrics"),
        "grid.compute_metrics_calls": calls("grid.compute_metrics"),
        "grid.compute_metrics_points":
            counters.get("grid.compute_metrics_points", 0.0),
        "grid.compute_metrics_share": total("grid.compute_metrics") / wall,
        "amoebot.from_shape_s": total("amoebot.from_shape"),
        "amoebot.scheduler_s": total("amoebot.scheduler") + total("core.dle"),
        "amoebot.rounds": counters.get("amoebot.rounds", 0.0),
        "amoebot.activations": counters.get("amoebot.activations", 0.0),
        "amoebot.activation_ratio": (
            counters.get("amoebot.activations", 0.0) / particle_rounds
            if particle_rounds else 0.0),
        "core.obd_s": total("core.obd"),
        "core.obd_rounds": counters.get("core.obd_rounds", 0.0),
        "core.dle_s": total("core.dle"),
        "core.dle_rounds": counters.get("core.dle_rounds", 0.0),
        "core.collect_s": total("core.collect"),
        "core.collect_rounds": counters.get("core.collect_rounds", 0.0),
        "core.pipeline_self_s": own("core.pipeline"),
        "baselines.erosion_s": total("baselines.erosion"),
        "baselines.randomized_s": total("baselines.randomized"),
        "record.self_s": own("record"),
        "io.records_to_dicts_s": total("io.records_to_dicts"),
        "session.self_s": own("session"),
        "orchestrator.transport_self_s": own("orchestrator.transport"),
        "orchestrator.config_digest_s": total("orchestrator.config_digest"),
        "orchestrator.cache_get_s": total("orchestrator.cache_get"),
        "orchestrator.cache_put_s": total("orchestrator.cache_put"),
        "orchestrator.cache_hit_ratio": (
            counters.get("orchestrator.cache_hits", 0.0) / gets
            if gets else 0.0),
        "orchestrator.ledger_append_s": total("orchestrator.ledger_append"),
        "orchestrator.ledger_bytes": traced["ledger_bytes"],
        "orchestrator.transport_overhead_s":
            native["cold_wall"] - busy / workers,
        "orchestrator.worker_busy_share":
            busy / (native["cold_wall"] * workers),
        "trace.coverage": sum(row["self"] for row in layers.values()) / wall,
    }
    return metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep-cell benchmark (see the module docstring).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="cut-down cells, for the self-test")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json",
                        help="expected record digests (default: %(default)s)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    expected = json.loads(args.expected.read_text())["workloads"]
    bench = Bench(root, args.workload, args.seed, args.toy,
                  expected.get(args.workload, {}))
    try:
        if args.trace:
            metrics, units = per_layer(bench, args.seconds), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(bench, args.seconds), END_TO_END_UNITS
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    failed_share = bench.failed / bench.attempted
    print(f"workload {args.workload} seed {args.seed}: {bench.cells} cells "
          f"per sweep, {bench.passes} interpreters, {bench.attempted} cell "
          f"records checked")
    for problem in bench.problems:
        print(f"  problem: {problem}")
    for name in units:
        print(f"  {name:36s} {metrics[name]:16.6f} {units[name]}")
    print(f"  {'failed_share':36s} {failed_share:16.6f} ratio")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
