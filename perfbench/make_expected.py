"""Rewrite ``expected.json``: the expected record of every benchmark cell.

Runs every cell any benchmark seed can reach (each workload's whole run
seed pool) through ``run_sweep`` and stores each record's digest.  The
file maps workload -> cell key (every config field but the run seed) ->
list of digests indexed by run seed.  Rewrite it only when a change is
meant to alter records; ``run.py`` counts every cell whose record differs
as failed.

Usage, from the repository root::

    python3 perfbench/make_expected.py [WORKLOAD ...]

Cells run on the process transport with one worker per available CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from sweep_child import digests  # noqa: E402
from workloads import WORKLOADS, cell_key  # noqa: E402


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    from repro.orchestrator import run_sweep

    path = HERE / "expected.json"
    document = (json.loads(path.read_text()) if path.is_file()
                else {"workloads": {}})
    for name in args.workloads:
        workload = WORKLOADS[name]
        configs = workload.pool_configs()
        sweep = run_sweep(configs, jobs=len(os.sched_getaffinity(0)))
        table: Dict[str, List[str]] = {}
        for config, digest in zip(configs, digests(sweep)):
            if digest == "error":
                raise SystemExit(f"{config.describe()} raised; a benchmark "
                                 "workload must not contain failing cells")
            column = table.setdefault(cell_key(config),
                                      [""] * workload.seed_pool)
            column[config.seed] = digest
        document["workloads"][name] = table
        print(f"{name}: {len(configs)} cells", file=sys.stderr)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
