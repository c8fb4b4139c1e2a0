"""Rewrite ``workloads.json``: per-workload facts ``BENCHMARK.json`` has no
room for.

For every workload it records why it was chosen, its transport, cells and
distinct shapes per sweep, the ``cell_tail_s`` percentile, the run seed
pool, the default and held-out benchmark seeds, and the share of traced
wall time each layer spent (self time, from one traced pass on the
default seed; ``unattributed`` is the time no layer's span covers), plus
the environment the shares were measured in.

Usage, from the repository root::

    python3 perfbench/describe.py
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORK_DIR, tail_percentile  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def traced_pass(name: str) -> Dict[str, Any]:
    work = Path(WORK_DIR) / "describe" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "outcome.json"
    subprocess.run([sys.executable, str(HERE / "sweep_child.py"),
                    "--workload", name, "--seed", str(DEFAULT_SEED),
                    "--transport", "inline", "--trace", "--work", str(work),
                    "--out", str(out)], check=True, timeout=170)
    outcome: Dict[str, Any] = json.loads(out.read_text())
    shutil.rmtree(work.parent)
    return outcome


def main() -> int:
    described: Dict[str, Any] = {}
    for name, workload in WORKLOADS.items():
        outcome = traced_pass(name)
        shares: Dict[str, float] = defaultdict(float)
        for span, row in outcome["layers"].items():
            shares[span.split(".")[0]] += row["self"] / outcome["traced_wall"]
        shares["unattributed"] = 1.0 - sum(shares.values())
        described[name] = {
            "why": workload.why,
            "transport": workload.transport,
            "cells_per_sweep": outcome["cells"],
            "distinct_shapes": outcome["shapes"],
            "cell_tail_percentile": round(tail_percentile(outcome["cells"]), 1),
            "run_seed_pool": workload.seed_pool,
            "run_seeds_per_sweep": workload.seeds_per_sweep,
            "run_seeds": {str(seed): workload.run_seeds(seed)
                          for seed in (DEFAULT_SEED, HELD_OUT_SEED)},
            "layer_shares_of_traced_wall": {
                layer: round(share, 4)
                for layer, share in sorted(shares.items(),
                                           key=lambda item: -item[1])},
        }
    document = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": described,
    }
    (HERE / "workloads.json").write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
