"""Self-test of the sweep-cell benchmark, at toy sizes (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

1. on every workload, ``run.py --trace 0`` and ``--trace 1`` end with the
   result object, whose metrics are exactly the ``end_to_end`` or
   ``per_layer`` metrics ``BENCHMARK.json`` names, each with its unit, and
   that every cell matches ``expected.json``;
2. with every expected digest corrupted, every cell counts as failed
   (``failed_share`` is 1), so the correctness check is live;
3. in a directory that holds only ``BENCHMARK.json`` and the benchmark's
   own files, ``run.py`` exits non-zero without printing a result.

Exits 0 when every check passes and prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work") / "selftest"
TIMEOUT_S = 170


def run_bench(cwd: Path, workload: str, trace: int,
              expected: Optional[Path] = None) -> subprocess.CompletedProcess:
    """Run the benchmark's own command at toy sizes from ``cwd``."""
    command = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    command = command + ["--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace), "--toy"]
    if expected is not None:
        command += ["--expected", str(expected.resolve())]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S)


def last_json(completed: subprocess.CompletedProcess) -> Dict[str, Any]:
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise ValueError(f"exit {completed.returncode}: "
                         f"{completed.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def check_result(result: Dict[str, Any], specs: List[Dict[str, Any]],
                 stdout: str) -> List[str]:
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    wanted = {spec["name"]: spec["unit"] for spec in specs}
    if set(result.get("metrics", {})) != set(wanted):
        problems.append(f"metrics {sorted(result.get('metrics', {}))} != "
                        f"{sorted(wanted)}")
    for name, unit in wanted.items():
        metric = result.get("metrics", {}).get(name, {})
        if metric.get("unit") != unit or not isinstance(
                metric.get("value"), (int, float)):
            problems.append(f"{name}: {metric!r}, want a number in {unit}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in stdout.splitlines()):
            problems.append(f"{name} is not printed with its unit {unit}")
    return problems


def main() -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures: List[str] = []

    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            try:
                completed = run_bench(Path.cwd(), workload, trace)
                result = last_json(completed)
            except (ValueError, subprocess.TimeoutExpired) as exc:
                failures.append(f"{label}: {exc}")
                continue
            for problem in check_result(result, benchmark[key],
                                        completed.stdout):
                failures.append(f"{label}: {problem}")
            if not result.get("correct") or result.get("failed") != 0:
                failures.append(f"{label}: not correct on the current tree "
                                f"({result.get('failed')} failed)")
            print(f"{label}: {result.get('attempted')} cells checked")

    expected = json.loads((HERE / "expected.json").read_text())
    for table in expected["workloads"].values():
        for key, column in table.items():
            table[key] = ["0" * 12 for _ in column]
    corrupted = WORK / "corrupted-expected.json"
    corrupted.write_text(json.dumps(expected))
    workload = benchmark["workloads"][0]["name"]
    try:
        result = last_json(run_bench(Path.cwd(), workload, 0, corrupted))
        if result["correct"] or result["failed"] != result["attempted"]:
            failures.append(f"corrupted digests: failed {result['failed']} of "
                            f"{result['attempted']}, correct "
                            f"{result['correct']}")
    except (ValueError, subprocess.TimeoutExpired) as exc:
        failures.append(f"corrupted digests: {exc}")

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy("BENCHMARK.json", bare)
    for path in benchmark["paths"]:
        shutil.copytree(path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(bare, workload, 0)
    if completed.returncode == 0 or completed.stdout.strip():
        failures.append("a directory without the program still printed a "
                        "result or exited 0")

    shutil.rmtree(WORK, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
