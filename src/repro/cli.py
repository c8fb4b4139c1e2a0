"""Command-line interface: ``python -m repro <command>``.

The CLI exposes the experiment harness without writing any Python:

* ``python -m repro sweep --algorithms dle obd --sizes 2 4 6 --jobs 4``
  — run an arbitrary experiment grid through the orchestrator
  (parallel workers, ``--cache-dir`` result reuse, ``--resume``,
  ``--engine`` activation-engine selection, ``--transport queue`` /
  ``--transport tcp`` to distribute over worker daemons,
  ``--checkpoint-dir`` / ``--checkpoint-every`` preemption-safe runs)
* ``python -m repro run --algorithm dle --checkpoint-dir ckpts`` — one
  checkpointable run through the :class:`repro.session.Session` API
  (``--resume-from PATH`` continues an interrupted run's checkpoint file)
* ``python -m repro serve --port 7643``        — TCP sweep coordinator for
  ``--transport tcp`` sweeps across machines with no shared filesystem
* ``python -m repro worker runs/queue``        — pull-based worker daemon
  serving ``--transport queue`` sweeps from any machine sharing the
  filesystem; ``--connect HOST:PORT`` serves a TCP coordinator instead
* ``python -m repro status --coordinator HOST:PORT``  — live board depth,
  per-worker lease ages and rolling throughput for a running distributed
  sweep (``--queue-dir DIR`` inspects a filesystem queue instead;
  ``--watch N`` re-polls, ``--json`` emits the raw snapshot — one NDJSON
  document per tick under ``--watch``, so tooling can consume the feed)
* ``python -m repro dashboard --ledger PATH``  — render a deterministic,
  self-contained HTML (and markdown) sweep dashboard from a run ledger,
  folding in ``--telemetry DIR`` metrics, the live ``--coordinator`` /
  ``--queue-dir`` status feed, robustness survival cells and
  ``--compare OTHER_LEDGER`` cohort deltas; ``--watch N`` republishes
  the page atomically on an interval (a live sweep monitor)
* ``python -m repro queue-gc runs/queue --ttl 86400`` — prune finished
  results, dead worker registrations and stale leases from a long-lived
  queue directory
* ``python -m repro bench --quick``               — fixed micro-benchmark grid,
  emits ``BENCH_<rev>.json`` and optionally gates against a baseline
* ``python -m repro profile --engine event``  — cProfile one driver run and
  report the geometry / activation / algorithm phase breakdown
* ``python -m repro table1``                  — reproduce the Table 1 comparison
* ``python -m repro scaling dle --families hexagon holey`` — scaling figures
* ``python -m repro elect --family holey --size 4``        — one election run
* ``python -m repro metrics --family annulus --size 5``    — shape parameters
* ``python -m repro families``                — list the shape families

Every record-producing command accepts ``--json PATH`` to additionally dump
the raw records (via :mod:`repro.io`) so results can be post-processed
elsewhere, and every sweep-capable command (``sweep``, ``table1``,
``scaling``) accepts ``--jobs N`` to spread runs over worker processes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .amoebot.system import ParticleSystem
from .analysis.experiments import (
    ALGORITHMS,
    TABLE1_FAMILIES,
    run_scaling_experiment,
    run_table1_experiment,
)
from .analysis.tables import (
    format_records,
    format_scaling_series,
    format_table,
    format_table1,
)
from .core.full import elect_leader, elect_leader_known_boundary
from .grid.generators import SHAPE_FAMILIES, make_shape
from .grid.metrics import compute_metrics
from .io import save_records
from .orchestrator import (
    DEFAULT_JOBS,
    DEFAULT_MAX_ATTEMPTS,
    ENGINES,
    SCHEDULER_ORDERS,
    TRANSPORT_HELP,
    TRANSPORTS,
    SweepSpec,
    format_sweep_scaling,
    format_sweep_summary,
    run_sweep,
)
from .orchestrator.net import DEFAULT_PORT
from .telemetry import LOG_LEVELS, configure_logging, counter, get_logger
from .viz.ascii_art import render_system

__all__ = ["main", "build_parser"]

#: Default parameter against which each algorithm's scaling is reported.
DEFAULT_PARAMETER = {
    "dle": "D_A",
    "dle+collect": "D_G",
    "collect": "D_G",
    "obd": "L_out",
    "obd+dle+collect": "L_out",
    "erosion": "n",
    "randomized": "L_out",
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Efficient Deterministic "
                    "Leader Election for Programmable Matter' (PODC 2021).",
    )
    parser.add_argument("--log-level", default="info",
                        choices=list(LOG_LEVELS),
                        help="verbosity of the repro.* loggers every "
                             "command reports through (before the "
                             "subcommand; default info)")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid through the parallel orchestrator")
    sweep.add_argument("--algorithms", nargs="+", default=["dle"],
                       choices=sorted(ALGORITHMS))
    sweep.add_argument("--families", nargs="+", default=["hexagon"],
                       choices=sorted(SHAPE_FAMILIES))
    sweep.add_argument("--sizes", type=int, nargs="+", default=[2, 3, 4])
    sweep.add_argument("--seeds", type=int, nargs="+", default=[0])
    sweep.add_argument("--scheduler", default="random",
                       choices=sorted(SCHEDULER_ORDERS),
                       help="activation order the adversary uses")
    sweep.add_argument("--engine", default="sweep", choices=sorted(ENGINES),
                       help="activation engine: 'sweep' activates every "
                            "particle each round, 'event' parks quiescent "
                            "particles (identical traces, less wall clock)")
    sweep.add_argument("--faults", nargs="+", default=[""], metavar="PLAN",
                       help="fault-plan axis: each PLAN is a spec string "
                            "like 'crash:rate=0.05,rounds=30;delay:rate=0.5"
                            ",max=3;shape:rate=0.01;seed=7' ('' = no "
                            "faults); the sweep runs the whole grid once "
                            "per plan — the input of 'repro report "
                            "--robustness'")
    sweep.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--transport", default=None, choices=list(TRANSPORTS),
                       help="where configs execute: " + "; ".join(
                           f"'{name}' = {TRANSPORT_HELP[name]}"
                           for name in TRANSPORTS))
    sweep.add_argument("--queue-dir", metavar="PATH", default=None,
                       help="shared task-queue directory "
                            "(required by --transport queue)")
    sweep.add_argument("--coordinator", metavar="HOST:PORT", default=None,
                       help="TCP coordinator address "
                            "(required by --transport tcp)")
    sweep.add_argument("--secret", default=None,
                       help="shared secret for the coordinator handshake "
                            "(default: the REPRO_SECRET environment "
                            "variable; tcp transport)")
    sweep.add_argument("--workers-expected", type=int, default=0,
                       help="wait until this many live workers are "
                            "registered before enqueueing "
                            "(queue/tcp transports)")
    sweep.add_argument("--worker-timeout", type=float, default=60.0,
                       help="seconds to wait for --workers-expected workers")
    sweep.add_argument("--queue-timeout", type=float, default=None,
                       help="overall seconds to wait for distributed "
                            "results (default: wait forever)")
    sweep.add_argument("--lease-ttl", type=float, default=60.0,
                       help="seconds without a heartbeat before a queue "
                            "task lease is reclaimed from a dead worker")
    sweep.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
                       help="retry budget per failing config before a "
                            "resumed sweep gives up on it (0 = unlimited)")
    sweep.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="content-addressed result cache directory")
    sweep.add_argument("--ledger", metavar="PATH", default=None,
                       help="append-only JSONL run ledger")
    sweep.add_argument("--resume", action="store_true",
                       help="skip configs the ledger already marks done "
                            "(requires --ledger)")
    sweep.add_argument("--parameter", default=None,
                       help="also fit rounds against this shape parameter")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-run progress lines on stderr")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="also write the raw records to a JSON file")
    sweep.add_argument("--summary-json", metavar="PATH", default=None,
                       help="write a machine-readable sweep summary "
                            "(result-source counts, failures, metrics) to "
                            "a JSON file")
    sweep.add_argument("--telemetry", metavar="DIR", default=None,
                       help="write a structured event log (events.jsonl) "
                            "and a final metrics snapshot (metrics.json) "
                            "into DIR")
    sweep.add_argument("--checkpoint-every", type=int, metavar="N",
                       default=None,
                       help="checkpoint each run every N scheduler rounds "
                            "so a killed worker's task resumes instead of "
                            "restarting")
    sweep.add_argument("--checkpoint-dir", metavar="PATH", default=None,
                       help="directory for per-config checkpoint files "
                            "(default: checkpointing disabled; queue "
                            "workers need this path to be shared, tcp "
                            "workers set their own with 'worker "
                            "--checkpoint-dir')")

    run = sub.add_parser(
        "run",
        help="run one config through the Session API, optionally "
             "checkpointing and resuming")
    run.add_argument("--algorithm", default="dle", choices=sorted(ALGORITHMS))
    run.add_argument("--family", default="hexagon",
                     choices=sorted(SHAPE_FAMILIES))
    run.add_argument("--size", type=int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scheduler", default="random",
                     choices=sorted(SCHEDULER_ORDERS),
                     help="activation order the adversary uses")
    run.add_argument("--engine", default="sweep", choices=sorted(ENGINES))
    run.add_argument("--faults", default="", metavar="PLAN",
                     help="fault-plan spec string ('' = no faults), e.g. "
                          "'crash:rate=0.05,rounds=30;seed=7'")
    run.add_argument("--checkpoint-every", type=int, metavar="N",
                     default=None,
                     help="write a checkpoint every N scheduler rounds "
                          "(requires --checkpoint-dir)")
    run.add_argument("--checkpoint-dir", metavar="PATH", default=None,
                     help="directory the checkpoint file is written into")
    run.add_argument("--resume-from", metavar="PATH", default=None,
                     help="resume from this checkpoint file instead of "
                          "starting a fresh run (ignores the config flags; "
                          "the checkpoint carries the config)")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write the record to a JSON file")

    table1 = sub.add_parser("table1", help="reproduce the Table 1 comparison")
    table1.add_argument("--sizes", type=int, nargs="+", default=[2, 3, 4])
    table1.add_argument("--families", nargs="+", default=list(TABLE1_FAMILIES),
                        choices=sorted(SHAPE_FAMILIES))
    table1.add_argument("--seed", type=int, default=0)
    table1.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help="worker processes (1 = in-process)")
    table1.add_argument("--json", metavar="PATH", default=None,
                        help="also write the raw records to a JSON file")

    scaling = sub.add_parser("scaling", help="scaling figure for one algorithm")
    scaling.add_argument("algorithm", choices=sorted(ALGORITHMS))
    scaling.add_argument("--families", nargs="+", default=["hexagon", "holey"],
                         choices=sorted(SHAPE_FAMILIES))
    scaling.add_argument("--sizes", type=int, nargs="+", default=[2, 3, 4, 6, 8])
    scaling.add_argument("--parameter", default=None,
                         help="shape parameter to fit against "
                              "(default depends on the algorithm)")
    scaling.add_argument("--seed", type=int, default=0)
    scaling.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                         help="worker processes (1 = in-process)")
    scaling.add_argument("--json", metavar="PATH", default=None)

    elect = sub.add_parser("elect", help="run one leader election end to end")
    elect.add_argument("--family", default="holey", choices=sorted(SHAPE_FAMILIES))
    elect.add_argument("--size", type=int, default=3)
    elect.add_argument("--seed", type=int, default=0)
    elect.add_argument("--known-boundary", action="store_true",
                       help="skip OBD and use the oracle boundary input")
    elect.add_argument("--no-reconnect", action="store_true",
                       help="skip Algorithm Collect")
    elect.add_argument("--render", action="store_true",
                       help="print the final configuration as ASCII art")

    worker = sub.add_parser(
        "worker",
        help="run a pull-based sweep worker against a shared queue "
             "directory or a TCP coordinator")
    worker.add_argument("queue_dir", metavar="QUEUE_DIR", nargs="?",
                        default=None,
                        help="the directory '--transport queue' sweeps "
                             "enqueue into (created if missing); omit when "
                             "using --connect")
    worker.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="serve a TCP coordinator ('python -m repro "
                             "serve') instead of a queue directory")
    worker.add_argument("--secret", default=None,
                        help="shared secret for the coordinator handshake "
                             "(default: the REPRO_SECRET environment "
                             "variable; with --connect)")
    worker.add_argument("--id", default=None,
                        help="worker id (default: <hostname>-<pid>)")
    worker.add_argument("--lease-ttl", type=float, default=60.0,
                        help="seconds without a heartbeat before other "
                             "workers may reclaim this worker's task "
                             "(queue mode; the coordinator owns this "
                             "setting in tcp mode)")
    worker.add_argument("--poll", type=float, default=0.2,
                        help="seconds between polls when the queue is empty")
    worker.add_argument("--max-idle", type=float, default=None,
                        help="exit after this many seconds without work "
                             "(default: run until a STOP file appears / "
                             "Ctrl-C)")
    worker.add_argument("--max-tasks", type=int, default=None,
                        help="exit after processing this many tasks")
    worker.add_argument("--checkpoint-dir", metavar="PATH", default=None,
                        help="checkpoint task runs into this directory, "
                             "overriding any directory the sweep attached "
                             "to the task (tcp workers share no filesystem "
                             "with the coordinator, so they must set this "
                             "themselves to checkpoint at all)")
    worker.add_argument("--checkpoint-every", type=int, metavar="N",
                        default=None,
                        help="checkpoint cadence in scheduler rounds, "
                             "overriding the task's cadence")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-task progress lines on stderr")

    serve = sub.add_parser(
        "serve",
        help="run the TCP sweep coordinator behind '--transport tcp'")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1; use "
                            "0.0.0.0 to serve other machines)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"port to listen on (default {DEFAULT_PORT}; "
                            f"0 picks a free port)")
    serve.add_argument("--secret", default=None,
                       help="shared secret workers and sweeps must present "
                            "(default: the REPRO_SECRET environment "
                            "variable; unset = unauthenticated)")
    serve.add_argument("--lease-ttl", type=float, default=60.0,
                       help="seconds without a heartbeat before a dead "
                            "worker's task is reclaimed")
    serve.add_argument("--result-ttl", type=float, default=24 * 3600.0,
                       help="seconds an uncollected result stays on the "
                            "board before it is pruned (default 86400 = "
                            "1 day); use a ttl larger than any sweep's "
                            "duration")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the startup line on stderr")

    status = sub.add_parser(
        "status",
        help="report live board depth, lease ages, throughput and workers "
             "for a running distributed sweep")
    status.add_argument("--coordinator", metavar="HOST:PORT", default=None,
                        help="query a live TCP coordinator "
                             "('python -m repro serve')")
    status.add_argument("--queue-dir", metavar="PATH", default=None,
                        help="inspect a filesystem queue directory instead")
    status.add_argument("--secret", default=None,
                        help="shared secret for the coordinator handshake "
                             "(default: the REPRO_SECRET environment "
                             "variable; with --coordinator)")
    status.add_argument("--watch", type=float, metavar="SECONDS",
                        default=None,
                        help="re-poll every SECONDS until Ctrl-C")
    status.add_argument("--json", action="store_true",
                        help="print the snapshot as JSON on stdout")

    dashboard = sub.add_parser(
        "dashboard",
        help="render a self-contained HTML/markdown sweep dashboard from "
             "a run ledger (optionally live, via --watch)")
    dashboard.add_argument("--ledger", metavar="PATH", required=True,
                           help="the JSONL run ledger to analyse (with "
                                "--watch it may not exist yet; the "
                                "dashboard follows its tail as it grows)")
    dashboard.add_argument("--telemetry", metavar="DIR", default=None,
                           help="fold in the metrics.json a '--telemetry "
                                "DIR' sweep wrote (cache hit rate, "
                                "retries, lease reclaims)")
    dashboard.add_argument("--coordinator", metavar="HOST:PORT", default=None,
                           help="fold in the live status feed of a TCP "
                                "coordinator (worker liveness, lease ages)")
    dashboard.add_argument("--queue-dir", metavar="PATH", default=None,
                           help="fold in the live status of a filesystem "
                                "task queue instead")
    dashboard.add_argument("--secret", default=None,
                           help="shared secret for the coordinator "
                                "handshake (default: the REPRO_SECRET "
                                "environment variable)")
    dashboard.add_argument("--out", metavar="PATH", default="sweep.html",
                           help="HTML output path (default sweep.html; "
                                "republished atomically under --watch)")
    dashboard.add_argument("--markdown", metavar="PATH", nargs="?",
                           const="-", default=None,
                           help="also emit the markdown dashboard ('-' or "
                                "no value = stdout)")
    dashboard.add_argument("--group-by", nargs="+", metavar="FIELD",
                           default=None,
                           help="record fields the percentile tables group "
                                "by (default: algorithm family size; any "
                                "config/record/metric field works, e.g. "
                                "engine, faults, n, l_out)")
    dashboard.add_argument("--compare", metavar="LEDGER", default=None,
                           help="baseline ledger for the cohort-comparison "
                                "section (per-group deltas, flagged "
                                "against --noise)")
    dashboard.add_argument("--metric", default="rounds",
                           help="numeric field the cohort comparison "
                                "reports (default rounds)")
    dashboard.add_argument("--noise", type=float, default=0.25,
                           help="noise margin for a 'significant' cohort "
                                "ratio (default 0.25 = ±25%%, the bench "
                                "gate's margin)")
    dashboard.add_argument("--watch", type=float, metavar="SECONDS",
                           default=None,
                           help="re-render every SECONDS, following the "
                                "ledger tail, until Ctrl-C")
    dashboard.add_argument("--ticks", type=int, metavar="N", default=None,
                           help="with --watch: stop after N renders "
                                "(smoke tests and CI)")
    dashboard.add_argument("--title", default=None,
                           help="dashboard title (default: the ledger "
                                "filename)")
    dashboard.add_argument("--stamp", action="store_true",
                           help="embed a generation timestamp (off by "
                                "default: output is byte-deterministic "
                                "for a fixed ledger)")

    queue_gc = sub.add_parser(
        "queue-gc",
        help="prune finished results and stale state from a queue directory")
    queue_gc.add_argument("queue_dir", metavar="QUEUE_DIR",
                          help="the queue directory to prune")
    queue_gc.add_argument("--ttl", type=float, default=24 * 3600.0,
                          help="age in seconds before results, worker "
                               "registrations and a STOP sentinel are "
                               "pruned (default 86400 = 1 day); use a ttl "
                               "larger than any live sweep's duration")
    queue_gc.add_argument("--lease-ttl", type=float, default=60.0,
                          help="heartbeat age after which leases are "
                               "reclaimed before pruning (default 60)")
    queue_gc.add_argument("--no-reclaim", action="store_true",
                          help="skip the stale-lease recovery pass")
    queue_gc.add_argument("--json", metavar="PATH", default=None,
                          help="also write the pruning counts to a JSON file")

    bench = sub.add_parser(
        "bench",
        help="run the fixed micro-benchmark grid and emit BENCH_<rev>.json")
    bench.add_argument("--quick", action="store_true",
                       help="run the small CI grid instead of the full one")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing repeats per entry (best is kept)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--only", metavar="PREFIX", default=None,
                       help="only run entries whose algorithm/family/size "
                            "key starts with PREFIX")
    bench.add_argument("--out", metavar="PATH", default=None,
                       help="output report path (default: BENCH_<rev>.json)")
    bench.add_argument("--baseline", metavar="PATH", default=None,
                       help="gate against this committed BENCH_*.json")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="allowed normalized-time regression fraction "
                            "against the baseline (default 0.25 = +25%%)")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress per-entry progress lines on stderr")

    profile = sub.add_parser(
        "profile",
        help="cProfile one algorithm run; report the per-phase breakdown "
             "(geometry / activation / algorithm)")
    profile.add_argument("--algorithm", default="dle",
                         choices=sorted(ALGORITHMS))
    profile.add_argument("--family", default="hexagon",
                         choices=sorted(SHAPE_FAMILIES))
    profile.add_argument("--size", type=int, default=16)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--engine", default="event", choices=sorted(ENGINES))
    profile.add_argument("--scheduler", default="random",
                         choices=sorted(SCHEDULER_ORDERS),
                         help="activation order the profiled run uses")
    profile.add_argument("--top", type=int, default=15,
                         help="number of hottest functions to list")
    profile.add_argument("--smoke", action="store_true",
                         help="profile the fixed small CI configuration "
                              "and fail unless the run succeeded")
    profile.add_argument("--baseline", metavar="PATH", default=None,
                         help="gate the geometry/activation/algorithm "
                              "phases against this committed profile "
                              "report (e.g. PROFILE_baseline.json)")
    profile.add_argument("--max-regression", type=float, default=0.35,
                         help="allowed normalized per-phase regression "
                              "fraction against --baseline "
                              "(default 0.35 = +35%%)")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="also write the report to a JSON file")

    lint = sub.add_parser(
        "lint",
        help="static analysis: determinism, state-protocol, telemetry, "
             "lock-order and API-hygiene rules",
        description="AST-based static analysis of repro source trees. "
                    "Exit code 0 when clean, 1 when findings exist, 2 on "
                    "usage errors.  Suppress one finding in place with "
                    "'# repro: lint-ok[CODE] reason'.")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: --self)")
    lint.add_argument("--self", action="store_true", dest="lint_self",
                      help="lint this repository's own src/, tests/, "
                           "examples/ and benchmarks/ trees (the CI gate)")
    lint.add_argument("--format", choices=("human", "json"), default="human",
                      help="report format on stdout (default human)")
    lint.add_argument("--json", metavar="PATH", default=None,
                      help="additionally write the JSON report to a file "
                           "(the CI failure artifact)")
    lint.add_argument("--select", metavar="RULES", default=None,
                      help="comma-separated rule codes or family letters "
                           "to run (e.g. D101,S or A)")
    lint.add_argument("--ignore", metavar="RULES", default=None,
                      help="comma-separated rule codes or family letters "
                           "to skip")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and exit")

    metrics = sub.add_parser("metrics", help="print the parameters of a shape")
    metrics.add_argument("--family", default="hexagon", choices=sorted(SHAPE_FAMILIES))
    metrics.add_argument("--size", type=int, default=3)
    metrics.add_argument("--seed", type=int, default=0)

    sub.add_parser("families", help="list the available shape families")

    report = sub.add_parser(
        "report",
        help="derive analysis reports from a finished sweep ledger")
    report.add_argument("--robustness", action="store_true",
                        help="the guarantee-survival table: termination "
                             "rate, safety violations and round inflation "
                             "per (algorithm, fault plan) cell")
    report.add_argument("--ledger", metavar="PATH", required=True,
                        help="the JSONL run ledger a sweep wrote")
    report.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report rows to a JSON file")
    return parser


def _sweep_parameters() -> List[str]:
    """Numeric record columns ``sweep --parameter`` can fit against."""
    from .grid.metrics import ShapeMetrics

    metric_keys = ShapeMetrics(n=1, n_area=1, diameter=1, area_diameter=1,
                               grid_diam=1, l_out=1, l_max=1,
                               num_holes=0).as_dict()
    return sorted(list(metric_keys) + ["rounds", "size"])


def _secret_or_env(secret: Optional[str]) -> Optional[str]:
    """CLI --secret value, falling back to the REPRO_SECRET env var (the
    env var keeps the secret out of shell history and ``ps`` output)."""
    import os

    return secret if secret is not None else os.environ.get("REPRO_SECRET")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.resume and not args.ledger:
        print("error: --resume requires --ledger", file=sys.stderr)
        return 2
    if args.transport == "queue" and not args.queue_dir:
        print("error: --transport queue requires --queue-dir",
              file=sys.stderr)
        return 2
    if args.queue_dir and args.transport != "queue":
        print("error: --queue-dir requires --transport queue",
              file=sys.stderr)
        return 2
    if args.transport == "tcp" and not args.coordinator:
        print("error: --transport tcp requires --coordinator",
              file=sys.stderr)
        return 2
    if args.coordinator and args.transport != "tcp":
        print("error: --coordinator requires --transport tcp",
              file=sys.stderr)
        return 2
    if args.parameter and args.parameter not in _sweep_parameters():
        # Validate before the sweep runs so a typo cannot discard the work.
        print(f"error: parameter {args.parameter!r} is not a numeric "
              f"record column; known: {_sweep_parameters()}", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and not args.checkpoint_dir:
        print("error: --checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    spec = SweepSpec(algorithms=args.algorithms, families=args.families,
                     sizes=args.sizes, seeds=args.seeds,
                     scheduler=args.scheduler, engine=args.engine,
                     faults=args.faults)
    try:
        spec.expand()
    except ValueError as exc:
        # Validate before anything runs so a fault-plan typo (or a plan on
        # an algorithm that rejects faults) cannot discard a grid of work.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    transport = args.transport
    if transport == "queue":
        from .orchestrator import QueueTransport

        transport = QueueTransport(args.queue_dir,
                                   lease_ttl=args.lease_ttl,
                                   max_attempts=args.max_attempts,
                                   workers_expected=args.workers_expected,
                                   worker_timeout=args.worker_timeout,
                                   timeout=args.queue_timeout)
    elif transport == "tcp":
        from .orchestrator import TcpTransport

        transport = TcpTransport(args.coordinator,
                                 secret=_secret_or_env(args.secret),
                                 max_attempts=args.max_attempts,
                                 workers_expected=args.workers_expected,
                                 worker_timeout=args.worker_timeout,
                                 timeout=args.queue_timeout)

    log = get_logger("sweep")

    def progress(done: int, total: int, result) -> None:
        status = "ok" if result.ok else "FAILED"
        if result.ok and result.source != "executed":
            status += f" ({result.source})"
        elif not result.ok and result.gave_up:
            status += " (gave up, retry budget spent)"
        log.info(f"[{done}/{total}] {result.config.describe()}: {status}")

    # A real registry is always installed around the sweep (the summary's
    # metrics block needs it); the event log only with --telemetry.  Both
    # are scoped, so library callers of run_sweep are unaffected.
    from .telemetry import EventLog, MetricsRegistry, use_event_log, \
        use_registry

    registry = MetricsRegistry()
    telemetry_dir = Path(args.telemetry) if args.telemetry else None
    event_log = None
    if telemetry_dir is not None:
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        event_log = EventLog(telemetry_dir / "events.jsonl",
                             context={"engine": args.engine,
                                      "transport": args.transport
                                      or ("process" if args.jobs > 1
                                          else "inline")})
    try:
        with use_registry(registry), use_event_log(event_log):
            result = run_sweep(spec, jobs=args.jobs, cache=args.cache_dir,
                               ledger=args.ledger, resume=args.resume,
                               transport=transport,
                               max_attempts=args.max_attempts or None,
                               checkpoint_every=args.checkpoint_every,
                               checkpoint_dir=args.checkpoint_dir,
                               progress=None if args.quiet else progress)
    finally:
        if event_log is not None:
            event_log.close()
    records = result.records
    print(format_records(records, title="sweep results"))
    if args.parameter:
        print()
        print(format_sweep_scaling(records, args.parameter))
    print()
    print(format_sweep_summary(result))
    for failure in result.failures:
        log.error(f"\nFAILED {failure.config.describe()}:\n{failure.error}")
    if args.json:
        save_records(records, args.json)
        print(f"raw records written to {args.json}")

    snapshot = registry.snapshot()
    metrics_block = _sweep_metrics_block(snapshot, result)
    if telemetry_dir is not None:
        from .orchestrator.fsutil import write_json_atomic

        write_json_atomic(telemetry_dir / "metrics.json", {
            "kind": "sweep-metrics",
            "spec": spec.to_dict(),
            "metrics": metrics_block,
            "snapshot": snapshot,
        })
        print(f"telemetry written to {telemetry_dir} "
              f"(events.jsonl: {event_log.lines} line(s), metrics.json)")
    if args.summary_json:
        summary = {
            "kind": "sweep-summary",
            "spec": spec.to_dict(),
            "counts": result.counts(),
            "elapsed": result.elapsed,
            "ok": not result.failures and bool(records),
            "failures": [f.config.describe() for f in result.failures],
            "metrics": metrics_block,
        }
        with open(args.summary_json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"sweep summary written to {args.summary_json}")
    return 1 if (result.failures or not records) else 0


def _sweep_metrics_block(snapshot, result) -> dict:
    """The ``metrics`` block of ``--summary-json``: the handful of numbers
    an operator actually checks, distilled from the full registry dump."""
    counters = snapshot.get("counters", {})
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    lookups = hits + misses
    rounds = {name.split(".")[1]: value
              for name, value in sorted(counters.items())
              if name.startswith("engine.") and name.endswith(".rounds")}
    return {
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        },
        "retries": sum(max(0, r.attempts - 1) for r in result.results),
        "reclaims": counters.get("queue.reclaims", 0),
        "rounds": rounds,
        "counters": counters,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    from .session import Session
    from .state import CheckpointError

    if args.checkpoint_every is not None and not args.checkpoint_dir:
        print("error: --checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    log = get_logger("run")

    def on_checkpoint(rounds: int, path: Path) -> None:
        log.info(f"run: checkpoint at round {rounds} -> {path}")

    try:
        if args.resume_from:
            session = Session.resume(args.resume_from,
                                     checkpoint_every=args.checkpoint_every,
                                     on_checkpoint=on_checkpoint)
        else:
            config = {"algorithm": args.algorithm, "family": args.family,
                      "size": args.size, "seed": args.seed,
                      "scheduler": args.scheduler, "engine": args.engine}
            if args.faults:
                config["faults"] = args.faults
            session = Session.run(config,
                                  checkpoint_every=args.checkpoint_every,
                                  checkpoint_dir=args.checkpoint_dir,
                                  on_checkpoint=on_checkpoint)
    except (CheckpointError, ValueError) as exc:
        # ValueError covers config validation — e.g. a fault-plan typo or
        # a plan on an algorithm that rejects fault injection.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if session.resumed_round is not None:
        log.info(f"run: resumed from round {session.resumed_round} "
                 f"({session.resumed_from})")
    record = session.record
    print(format_records([record], title=session.config.describe()))
    if args.json:
        save_records([record], args.json)
        print(f"raw record written to {args.json}")
    return 0 if record.succeeded else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    from .orchestrator import run_tcp_worker, run_worker
    from .orchestrator.net import HandshakeError

    log = get_logger("worker")
    if (args.queue_dir is None) == (args.connect is None):
        print("error: pass exactly one of QUEUE_DIR or --connect HOST:PORT",
              file=sys.stderr)
        return 2

    def progress(task_id: str, result) -> None:
        if result["status"] == "retry":
            status = f"retrying (attempt {result['attempt']})"
        elif "record" in result:
            status = "ok"
        else:
            status = "FAILED"
        if result.get("resumed_round") is not None:
            status += f" (resumed from round {result['resumed_round']})"
        log.info(f"worker: {task_id}: {status}")

    try:
        if args.connect is not None:
            if not args.quiet:
                log.info(f"worker: serving coordinator {args.connect} "
                         f"(stop with Ctrl-C)")
            summary = run_tcp_worker(
                args.connect, secret=_secret_or_env(args.secret),
                worker_id=args.id, poll=args.poll, max_idle=args.max_idle,
                max_tasks=args.max_tasks,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                progress=None if args.quiet else progress)
        else:
            if not args.quiet:
                log.info(f"worker: serving queue {args.queue_dir} "
                         f"(lease ttl {args.lease_ttl:.0f}s; stop with a "
                         f"STOP file or Ctrl-C)")
            summary = run_worker(args.queue_dir, worker_id=args.id,
                                 lease_ttl=args.lease_ttl, poll=args.poll,
                                 max_idle=args.max_idle,
                                 max_tasks=args.max_tasks,
                                 checkpoint_dir=args.checkpoint_dir,
                                 checkpoint_every=args.checkpoint_every,
                                 progress=None if args.quiet else progress)
    except HandshakeError as exc:
        log.error(f"worker: {exc}")
        return 1
    except KeyboardInterrupt:
        log.warning("worker: interrupted")
        return 130
    if not args.quiet:
        log.info(f"worker: exiting after {summary.processed} task(s)")
        log.info(summary.describe())
    # A worker whose final task failed terminally exits nonzero, so
    # supervisors (CI scripts, systemd units) notice without log-scraping.
    return 1 if summary.last_task_failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .orchestrator import run_server

    log = get_logger("serve")

    def ready(endpoint: str) -> None:
        if not args.quiet:
            secured = "shared-secret" if _secret_or_env(args.secret) \
                else "UNAUTHENTICATED"
            log.info(f"coordinator: listening on {endpoint} ({secured}; "
                     f"lease ttl {args.lease_ttl:.0f}s; stop with Ctrl-C)")

    try:
        return run_server(host=args.host, port=args.port,
                          secret=_secret_or_env(args.secret),
                          lease_ttl=args.lease_ttl,
                          result_ttl=args.result_ttl, ready=ready)
    except KeyboardInterrupt:
        log.warning("coordinator: interrupted")
        return 130


def collect_status(coordinator: Optional[str] = None,
                   queue_dir: Optional[str] = None,
                   secret: Optional[str] = None) -> dict:
    """One unified status document for both backends (``repro status``
    and the sweep dashboard share it).

    Schema: ``kind`` / ``source`` (``"tcp"`` or ``"queue"``) / ``target`` /
    ``lease_ttl`` / ``board`` (pending, leased, done, lease_ages, leases,
    throughput, counters where available) / ``workers`` (list of dicts with
    at least ``id``) / ``stop``.
    """
    if coordinator:
        from .orchestrator.net import fetch_status

        status = fetch_status(coordinator, secret=_secret_or_env(secret))
        return {
            "kind": "repro-status",
            "source": "tcp",
            "target": coordinator,
            "lease_ttl": status.get("lease_ttl"),
            "board": status.get("board", {}),
            "workers": [{"id": worker}
                        for worker in status.get("workers", [])],
            "stop": bool(status.get("stop")),
        }
    from .orchestrator.fsutil import read_json
    from .orchestrator.queue import STATUS_FILENAME, FileTaskQueue

    snapshot = FileTaskQueue(queue_dir).status_snapshot()
    document = {
        "kind": "repro-status",
        "source": "queue",
        "target": str(queue_dir),
        "lease_ttl": snapshot["lease_ttl"],
        "board": snapshot["board"],
        "workers": snapshot["workers"],
        "stop": snapshot["stop"],
    }
    # The coordinator's published snapshot adds what directory listings
    # cannot know: how much of the sweep it has collected so far.
    published = read_json(Path(queue_dir) / STATUS_FILENAME)
    if published is not None and "coordinator" in published:
        document["coordinator"] = published["coordinator"]
    return document


def _status_snapshot(args: argparse.Namespace) -> dict:
    return collect_status(coordinator=args.coordinator,
                          queue_dir=args.queue_dir, secret=args.secret)


def _render_status(document: dict, as_json: bool,
                   stream: bool = False) -> None:
    if as_json:
        # Under --watch the feed is NDJSON: one compact document per
        # tick, flushed, so `repro status --watch --json | tool` works.
        if stream:
            print(json.dumps(document, separators=(",", ":")), flush=True)
        else:
            print(json.dumps(document, indent=2))
        return
    board = document.get("board", {})
    line = (f"{document['source']} {document['target']}: "
            f"{board.get('pending', 0)} pending, "
            f"{board.get('leased', 0)} leased, "
            f"{board.get('done', 0)} done")
    if document.get("stop"):
        line += " [STOP requested]"
    print(line)
    ages = board.get("lease_ages", {})
    if ages.get("count"):
        print(f"  lease ages: p50 {ages['p50']}s, p90 {ages['p90']}s, "
              f"max {ages['max']}s")
    for lease in board.get("leases", []):
        print(f"  lease {lease['id']}: worker "
              f"{lease.get('worker') or '?'}, {lease['age']}s old")
    throughput = board.get("throughput")
    if throughput:
        print(f"  throughput: {throughput.get('completed', 0)} result(s) "
              f"in the last {throughput.get('window', 0):.0f}s "
              f"({throughput.get('per_second', 0.0)}/s)")
    counters = board.get("counters")
    if counters:
        print("  counters: " + ", ".join(
            f"{name}={value}" for name, value in sorted(counters.items())))
    workers = document.get("workers", [])
    if workers:
        for worker in workers:
            extra = ""
            if worker.get("heartbeat_age") is not None:
                extra = f" (heartbeat {worker['heartbeat_age']}s ago)"
            print(f"  worker {worker['id']}{extra}")
    else:
        print("  no workers")
    coordinator = document.get("coordinator")
    if coordinator:
        print(f"  coordinator: {coordinator.get('collected', 0)}/"
              f"{coordinator.get('enqueued', 0)} collected, "
              f"{coordinator.get('outstanding', 0)} outstanding")


def _watch_status(args: argparse.Namespace,
                  snapshot=_status_snapshot,
                  sleep=time.sleep) -> int:
    """Poll-and-render loop behind ``status --watch``.

    An unreachable target (the coordinator restarting, the queue directory
    briefly missing) must not kill the watch: the error is reported once,
    then polling continues until the target answers again — or Ctrl-C.
    ``snapshot`` / ``sleep`` exist for tests.
    """
    down = False
    while True:
        try:
            document = snapshot(args)
        except KeyboardInterrupt:
            return 130
        except (OSError, ConnectionError, RuntimeError) as exc:
            if not down:
                print(f"status: {exc}; retrying every "
                      f"{args.watch:g}s until it answers (Ctrl-C stops)",
                      file=sys.stderr)
            down = True
        else:
            if down:
                print("status: target answering again", file=sys.stderr)
            down = False
            _render_status(document, args.json, stream=True)
        try:
            sleep(args.watch)
        except KeyboardInterrupt:
            return 130


def _cmd_status(args: argparse.Namespace) -> int:
    if (args.coordinator is None) == (args.queue_dir is None):
        print("error: pass exactly one of --coordinator HOST:PORT or "
              "--queue-dir PATH", file=sys.stderr)
        return 2
    if args.watch:
        return _watch_status(args)
    try:
        _render_status(_status_snapshot(args), args.json)
    except KeyboardInterrupt:
        return 130
    except (OSError, ConnectionError, RuntimeError) as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from .analysis.dashboard import (
        DashboardBuilder,
        render_dashboard_html,
        render_dashboard_markdown,
    )
    from .analysis.stream import DEFAULT_GROUP_BY
    from .orchestrator.fsutil import write_text_atomic

    if args.coordinator and args.queue_dir:
        print("error: pass at most one of --coordinator or --queue-dir",
              file=sys.stderr)
        return 2
    if args.ticks is not None and not args.watch:
        print("error: --ticks requires --watch", file=sys.stderr)
        return 2
    if not args.watch and not Path(args.ledger).is_file():
        # With --watch a not-yet-written ledger is fine: the follow-tail
        # picks it up the moment the sweep creates it.
        print(f"error: no ledger at {args.ledger}", file=sys.stderr)
        return 2
    if args.compare and not Path(args.compare).is_file():
        print(f"error: no ledger at {args.compare}", file=sys.stderr)
        return 2

    log = get_logger("dashboard")
    builder = DashboardBuilder(
        args.ledger, telemetry=args.telemetry,
        group_by=args.group_by or DEFAULT_GROUP_BY,
        compare_with=args.compare, compare_metric=args.metric,
        noise=args.noise, title=args.title)
    status_down = False
    ticks = 0
    while True:
        status = None
        if args.coordinator or args.queue_dir:
            try:
                status = collect_status(coordinator=args.coordinator,
                                        queue_dir=args.queue_dir,
                                        secret=args.secret)
                status_down = False
            except (OSError, ConnectionError, RuntimeError) as exc:
                # A restarting coordinator must not kill a live monitor:
                # render without the feed and keep polling.
                if not status_down:
                    log.warning(f"dashboard: status unavailable ({exc}); "
                                f"rendering without the live feed")
                status_down = True
                if not args.watch:
                    return 1
        generated = None
        if args.stamp:
            generated = time.strftime("%Y-%m-%d %H:%M:%S UTC",
                                      time.gmtime())
        dash = builder.refresh(status=status, generated=generated)
        write_text_atomic(Path(args.out),
                          render_dashboard_html(dash, refresh=args.watch))
        if args.markdown:
            markdown = render_dashboard_markdown(dash)
            if args.markdown == "-":
                print(markdown, end="")
            else:
                write_text_atomic(Path(args.markdown), markdown)
        ticks += 1
        if not args.watch:
            break
        counter("dashboard.watch_ticks").inc()
        if args.ticks is not None and ticks >= args.ticks:
            break
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 130
    if args.markdown != "-":
        targets = args.out + (f" and {args.markdown}" if args.markdown
                              else "")
        log.info(f"dashboard: {builder.aggregator.entries} ledger "
                 f"entr{'y' if builder.aggregator.entries == 1 else 'ies'} "
                 f"rendered to {targets}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    records = run_table1_experiment(sizes=tuple(args.sizes), seed=args.seed,
                                    families=tuple(args.families),
                                    jobs=args.jobs)
    print(format_table1(records))
    if args.json:
        save_records(records, args.json)
        print(f"\nraw records written to {args.json}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    parameter = args.parameter or DEFAULT_PARAMETER.get(args.algorithm, "n")
    all_records = []
    for family in args.families:
        records = run_scaling_experiment(args.algorithm, family,
                                         tuple(args.sizes), seed=args.seed,
                                         jobs=args.jobs)
        all_records.extend(records)
        title = f"{args.algorithm} rounds vs {parameter} ({family})"
        print(format_scaling_series(records, parameter, title=title))
        print()
    if args.json:
        save_records(all_records, args.json)
        print(f"raw records written to {args.json}")
    return 0


def _cmd_elect(args: argparse.Namespace) -> int:
    shape = make_shape(args.family, args.size, seed=args.seed)
    metrics = compute_metrics(shape)
    print(format_table([metrics.as_dict()], title="shape parameters"))
    system = ParticleSystem.from_shape(shape, orientation_seed=args.seed)
    runner = elect_leader_known_boundary if args.known_boundary else elect_leader
    outcome = runner(system, reconnect=not args.no_reconnect, seed=args.seed)
    print("\nleader point     :", outcome.leader_point)
    print("rounds per stage :", outcome.stage_rounds())
    print("connected after  :", outcome.connected_after)
    if args.render:
        print("\n" + render_system(system))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .analysis.bench import (
        FULL_GRID,
        QUICK_GRID,
        compare_to_baseline,
        load_report,
        run_bench,
    )

    grid = QUICK_GRID if args.quick else FULL_GRID

    def progress(key, entry):
        print(f"  {key}: {entry.seconds * 1000:.1f} ms "
              f"(normalized {entry.normalized:.2f}, rounds {entry.rounds})",
              file=sys.stderr)

    report = run_bench(grid, repeats=args.repeats, seed=args.seed,
                       quick=args.quick, only=args.only,
                       progress=None if args.quiet else progress)
    if not report.entries:
        print("error: no benchmark entries matched", file=sys.stderr)
        return 2

    rows = [{
        "benchmark": e.key,
        "ms": round(e.seconds * 1000, 1),
        "normalized": round(e.normalized, 2),
        "rounds": e.rounds,
        "ok": e.succeeded,
    } for e in report.entries]
    print(format_table(rows, title=f"bench @ {report.rev} "
                                   f"(best of {report.repeats})"))
    speedups = report.speedups
    if speedups:
        print("\nevent-engine speedup (sweep time / event time):")
        for config in sorted(speedups):
            print(f"  {config}: {speedups[config]:.2f}x")

    out = args.out or f"BENCH_{report.rev}.json"
    report.save(out)
    print(f"\nreport written to {out}")

    if args.baseline:
        baseline = load_report(args.baseline)
        comparison = compare_to_baseline(report, baseline,
                                         max_regression=args.max_regression)
        for key, cur, base, ratio in comparison.improvements:
            print(f"improved: {key} normalized {base:.2f} -> {cur:.2f} "
                  f"({ratio:.2f}x)")
        for key in comparison.new_entries:
            print(f"new (no baseline): {key}")
        for key in comparison.missing:
            print(f"missing (in baseline only): {key}")
        if not comparison.ok:
            print(f"\nFAILED: {len(comparison.regressions)} benchmark(s) "
                  f"regressed more than "
                  f"{args.max_regression:.0%} vs {args.baseline}:",
                  file=sys.stderr)
            for key, cur, base, ratio in comparison.regressions:
                print(f"  {key}: normalized {base:.2f} -> {cur:.2f} "
                      f"({ratio:.2f}x)", file=sys.stderr)
            return 1
        print(f"baseline check ok ({args.baseline}, "
              f"max regression {args.max_regression:.0%})")
    return 0


def _cmd_queue_gc(args: argparse.Namespace) -> int:
    from .orchestrator.queue import FileTaskQueue

    queue = FileTaskQueue(args.queue_dir, lease_ttl=args.lease_ttl)
    counts = queue.gc(ttl=args.ttl, reclaim=not args.no_reclaim)
    print(f"queue-gc {args.queue_dir}: "
          f"{counts['reclaimed']} lease(s) reclaimed, "
          f"{counts['results']} result(s) pruned, "
          f"{counts['workers']} dead worker registration(s) removed"
          + (", STOP sentinel removed" if counts["stop"] else ""))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"kind": "queue-gc", "queue_dir": args.queue_dir,
                       "ttl": args.ttl, "counts": counts}, handle, indent=2)
        print(f"counts written to {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .analysis.profile import (
        SMOKE_CONFIG,
        compare_profile_to_baseline,
        load_profile,
        run_profile,
    )

    if args.smoke:
        config = dict(SMOKE_CONFIG)
    else:
        config = {"algorithm": args.algorithm, "family": args.family,
                  "size": args.size, "seed": args.seed,
                  "engine": args.engine}
    report = run_profile(order=args.scheduler, top=args.top, **config)

    fractions = report.phase_fractions()
    rows = [{
        "phase": phase,
        "self seconds": round(report.phases[phase], 4),
        "share": f"{fractions[phase]:.1%}",
    } for phase in sorted(report.phases, key=lambda p: -report.phases[p])]
    title = (f"profile {report.algorithm}/{report.family}/{report.size} "
             f"engine={report.engine} ({report.seconds:.2f}s wall, "
             f"{report.rounds} rounds)")
    print(format_table(rows, title=title))
    print("\nhottest functions (self time):")
    for phase, location, calls, tottime, cumtime in report.top:
        print(f"  {tottime * 1000:8.1f} ms  {phase:<10} {location} "
              f"({calls} calls)")
    if args.json:
        report.save(args.json)
        print(f"\nreport written to {args.json}")
    if args.smoke and not report.succeeded:
        print("error: smoke profile run did not succeed", file=sys.stderr)
        return 1
    if args.baseline:
        comparison = compare_profile_to_baseline(
            report, load_profile(args.baseline),
            max_regression=args.max_regression)
        for phase, cur, base, ratio in comparison.improvements:
            print(f"improved: {phase} normalized {base:.2f} -> {cur:.2f} "
                  f"({ratio:.2f}x)")
        for phase in comparison.skipped:
            print(f"not gated (missing or below the noise floor): {phase}")
        if not comparison.ok:
            print(f"\nFAILED: {len(comparison.regressions)} phase(s) "
                  f"regressed more than {args.max_regression:.0%} vs "
                  f"{args.baseline}:", file=sys.stderr)
            for phase, cur, base, ratio in comparison.regressions:
                print(f"  {phase}: normalized {base:.2f} -> {cur:.2f} "
                      f"({ratio:.2f}x)", file=sys.stderr)
            return 1
        print(f"profile baseline check ok ({args.baseline}, "
              f"max regression {args.max_regression:.0%})")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    shape = make_shape(args.family, args.size, seed=args.seed)
    metrics = compute_metrics(shape)
    print(format_table([metrics.as_dict()],
                       title=f"{args.family} size {args.size}"))
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(SHAPE_FAMILIES):
        shape = make_shape(name, 2, seed=0)
        rows.append({
            "family": name,
            "n(size=2)": len(shape),
            "holes(size=2)": len(shape.holes),
        })
    print(format_table(rows, title="shape families"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import DEFAULT_SELF_PATHS, all_rules, lint_paths

    if args.list_rules:
        for rule in all_rules():
            roles = ",".join(rule.roles)
            print(f"{rule.code}  {rule.name}  [{roles}]")
            print(f"       {rule.description}")
        return 0
    paths = list(args.paths)
    if args.lint_self or not paths:
        missing = [name for name in DEFAULT_SELF_PATHS
                   if not Path(name).exists()]
        if "src" in missing:
            print("error: --self expects to run from the repository root "
                  "(no src/ here); pass explicit paths instead",
                  file=sys.stderr)
            return 2
        paths.extend(name for name in DEFAULT_SELF_PATHS
                     if name not in missing and name not in paths)
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    for path in paths:
        if not Path(path).exists():
            print(f"error: no such path {path!r}", file=sys.stderr)
            return 2
    report = lint_paths(paths, select=select, ignore=ignore)
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=2)
                                   + "\n", encoding="utf-8")
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        if report.ok:
            print(f"repro lint: clean ({report.files_checked} files)")
        else:
            print(report.format_human())
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    if not args.robustness:
        print("error: report needs a report type (--robustness)",
              file=sys.stderr)
        return 2
    if not Path(args.ledger).is_file():
        print(f"error: no ledger at {args.ledger}", file=sys.stderr)
        return 2
    from .analysis.robustness import robustness_report

    cells, table = robustness_report(args.ledger)
    if not cells:
        print(f"error: ledger {args.ledger} holds no run entries",
              file=sys.stderr)
        return 1
    print(table)
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(
            json.dumps([cell.as_dict() for cell in cells], indent=2) + "\n",
            encoding="utf-8")
        print(f"report rows written to {args.json}")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "run": _cmd_run,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "status": _cmd_status,
    "dashboard": _cmd_dashboard,
    "queue-gc": _cmd_queue_gc,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "lint": _cmd_lint,
    "table1": _cmd_table1,
    "scaling": _cmd_scaling,
    "elect": _cmd_elect,
    "metrics": _cmd_metrics,
    "families": _cmd_families,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
