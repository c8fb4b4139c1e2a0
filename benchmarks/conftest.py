"""Shared helpers for the benchmark harness.

Each benchmark file regenerates one experiment (one table or figure) of the
artefact table in EXPERIMENTS.md; its "Fidelity" section says which round
counts are measured by the scheduler and which are charged.  The quantity
the paper talks about is the number of *asynchronous rounds*, not
wall-clock time, so every benchmark

* runs the experiment exactly once through ``benchmark.pedantic`` (wall-clock
  time is still recorded for the pytest-benchmark report),
* stores the measured rounds and the relevant shape parameters in
  ``benchmark.extra_info`` so they appear in the benchmark JSON/terminal
  output, and
* prints the plain-text table for the experiment once per module, which is
  what EXPERIMENTS.md records.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under the benchmark fixture and return its
    result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def sweep_once(benchmark, spec, **kwargs):
    """Run a :class:`repro.orchestrator.SweepSpec` exactly once through the
    orchestrator under the benchmark fixture and return the records.

    Execution counts (executed / cached / resumed / failed) land in
    ``benchmark.extra_info`` so the benchmark JSON records how the sweep's
    results were obtained.
    """
    from repro.api import run_sweep

    result = benchmark.pedantic(run_sweep, args=(spec,), kwargs=kwargs,
                                rounds=1, iterations=1)
    for key, value in result.counts().items():
        benchmark.extra_info[f"sweep_{key}"] = value
    return result.raise_failures().records


def attach_record(benchmark, record):
    """Attach an ExperimentRecord's key numbers to the benchmark report."""
    row = record.as_row()
    benchmark.extra_info.update({
        "algorithm": row["algorithm"],
        "family": row["family"],
        "size": row["size"],
        "n": row["n"],
        "D": row["D"],
        "D_A": row["D_A"],
        "D_G": row["D_G"],
        "L_out": row["L_out"],
        "rounds": row["rounds"],
        "ok": row["ok"],
    })
