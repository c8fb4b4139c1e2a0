"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every cold sweep begins
with an empty per-process shape cache (``repro.orchestrator.pool``
memoises ``(family, size, seed) -> (Shape, ShapeMetrics)``).  A pass is

1. interpreter start, imports and spec expansion (the set-up time),
2. a cold ``run_sweep`` into an empty result cache and ledger,
3. warm re-sweeps against that cache, each appending to a fresh copy of
   the ledger the cold sweep left, until :data:`WARM_SECONDS` have passed.

A cell's time is the gap between the sweep's ``progress`` callback for it
and the one before (the sweep's start, for the first cell): what a user
of ``run_sweep`` waits per delivered cell, including the cache put, the
ledger append and, on the process transport, dispatch and pickling.

With ``--trace`` the layer boundaries are wrapped in spans (see
``tracer.py``) and exactly one warm re-sweep runs.  The outcome goes to
``--out`` as JSON.

Usage (from the repository root)::

    python3 perfbench/sweep_child.py --workload tiny-process --seed 1 \\
        --work .perfbench_work/x --out .perfbench_work/x/pass.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Minimum warm re-sweep time per untraced pass; re-sweeps repeat until it
#: is met.
WARM_SECONDS = 0.25


def record_digest(record_dict: Dict[str, Any]) -> str:
    """Digest of one record's canonical JSON (rounds, success, metrics,
    details and the cell's identity)."""
    canonical = json.dumps(record_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def digests(sweep: Any) -> List[str]:
    """Per-cell record digests in spec order; ``"error"`` for a failure."""
    from repro.io import records_to_dicts

    return [record_digest(records_to_dicts([result.record])[0])
            if result.ok else "error" for result in sweep.results]


def children_peak_kb() -> int:
    """Sum of the live child processes' peak RSS (``VmHWM``), in KiB.

    ``RUSAGE_CHILDREN`` reports only the largest child, so the pool
    workers are read while they are still alive."""
    total = 0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
            total += next(int(line.split()[1]) for line in handle
                          if line.startswith("VmHWM:"))
    return total


def line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--transport", default=None)
    parser.add_argument("--started", type=float, default=None,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="wrap the layer boundaries in spans")
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from repro.orchestrator import ResultCache, run_sweep

    from workloads import WORKLOADS, cell_key

    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed, toy=args.toy)
    setup_s = (time.monotonic() - args.started
               if args.started is not None else None)
    outcome: Dict[str, Any] = {"setup_s": setup_s}
    transport = args.transport or workload.transport
    # The coordinating process puts every result into the cache and the
    # ledger, so it keeps a CPU of its own: with one worker per CPU the
    # pool oversubscribes the machine, which on 2 CPUs made the sweep both
    # slower and far less steady.
    jobs = (max(1, len(os.sched_getaffinity(0)) - 1)
            if transport == "process" else 1)
    cache_root = args.work / "cache"
    cold_ledger = args.work / "ledger.jsonl"
    index_of = {config: index for index, config in enumerate(configs)}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def sweep(ledger: Path) -> Tuple[Any, float, List[float], int]:
        """One ``run_sweep``: its result, wall time, per-cell times in spec
        order and the pool workers' summed peak RSS in KiB."""
        cell_s = [0.0] * len(configs)
        children_kb = [0]
        last = [0.0]

        def progress(done: int, total: int, result: Any) -> None:
            now = time.perf_counter()
            cell_s[index_of[result.config]] = now - last[0]
            last[0] = now
            if done == total:
                children_kb[0] = children_peak_kb()

        started = last[0] = time.perf_counter()
        result = run_sweep(configs, jobs=jobs, cache=ResultCache(cache_root),
                           ledger=ledger, transport=transport,
                           progress=progress)
        wall = time.perf_counter() - started
        return result, wall, cell_s, children_kb[0]

    cold, cold_wall, cold_cell_s, children_kb = sweep(cold_ledger)
    cold_ledger_copy = args.work / "ledger.cold.jsonl"
    shutil.copyfile(cold_ledger, cold_ledger_copy)
    warm_walls: List[float] = []
    warm_sweeps: List[Any] = []
    warm_started = time.perf_counter()
    while not warm_walls or (
            tracer is None
            and time.perf_counter() - warm_started < WARM_SECONDS):
        ledger = args.work / f"ledger.warm{len(warm_walls)}.jsonl"
        shutil.copyfile(cold_ledger_copy, ledger)
        warm, wall, _, _ = sweep(ledger)
        warm_walls.append(wall)
        warm_sweeps.append((warm, ledger))
    if tracer is not None:
        tracer.uninstall()

    outcome.update({
        "transport": transport,
        "jobs": jobs,
        "cells": len(configs),
        "shapes": len({(c.family, c.size, c.seed) for c in configs}),
        "cell_ids": [[cell_key(c), c.seed] for c in configs],
        "cold_wall": cold_wall,
        "cold_cell_s": cold_cell_s,
        "cold_elapsed": [result.elapsed for result in cold.results],
        "cold_digests": digests(cold),
        "cold_errors": [result.error.splitlines()[-1]
                        for result in cold.results if not result.ok][:5],
        "warm_walls": warm_walls,
        "warm_digests": [digests(warm) for warm, _ in warm_sweeps],
        "warm_all_cached": all(
            warm.counts()["cached"] == len(configs) for warm, _ in warm_sweeps),
        "ledger_lines_ok": all(line_count(ledger) == 2 * len(configs)
                               for _, ledger in warm_sweeps),
        "ledger_bytes": os.path.getsize(warm_sweeps[-1][1]),
        "rss_kb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + children_kb),
    })
    if tracer is not None:
        outcome["layers"] = tracer.layer_times()
        outcome["counters"] = dict(tracer.counters)
        outcome["traced_wall"] = cold_wall + warm_walls[0]
    args.out.write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
