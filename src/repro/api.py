"""The stable public API of the reproduction.

Import from here — and only from here — in examples, notebooks and
downstream code::

    from repro.api import RunConfig, Session, SweepSpec, run_sweep

Everything this module exports is covered by the compatibility promise in
EXPERIMENTS.md: names keep working across refactors of the underlying
packages (whose layout may change without notice).  The surface, grouped:

Running experiments
    ``RunConfig`` / ``SweepSpec`` — declarative run and sweep-grid specs;
    ``run_sweep`` (with ``scaling_spec`` / ``table1_spec``) — execute a
    spec with caching, ledgers, resume and pluggable transports;
    ``Session`` — one checkpointable, resumable run of one config;
    ``run_experiment`` / ``ALGORITHMS`` — the per-algorithm measurement
    drivers behind every sweep; ``run_scaling_experiment`` /
    ``run_table1_experiment`` (with ``TABLE1_ALGORITHMS`` /
    ``TABLE1_FAMILIES``) — the pre-packaged paper experiments.

The simulator
    ``ParticleSystem`` / ``run_algorithm`` / ``make_scheduler`` /
    ``Scheduler`` — one algorithm on one system under an explicit
    activation order and engine; ``ADVERSARY_FACTORIES`` — the named
    adversarial activation orders used by the scheduler ablation.

Fault injection and robustness
    ``FaultSpec`` — the parsed, seeded fault plan
    (crash/revive, visibility delays, shape perturbation);
    ``FaultInjector`` — the per-run adversary the schedulers consult;
    ``FAULT_ALGORITHMS`` — the algorithms that accept a fault plan;
    ``RobustnessCell`` / ``robustness_rows`` / ``robustness_report`` /
    ``format_robustness_table`` — the guarantee-survival report over a
    sweep ledger (``repro report --robustness``).

The paper's algorithms and baselines
    ``elect_leader`` / ``elect_leader_known_boundary`` (the full
    pipeline), ``DLEAlgorithm``, ``CollectSimulator``,
    ``verify_unique_leader``, ``run_erosion_election``,
    ``run_randomized_election``, ``SpanningTreeAlgorithm`` /
    ``verify_spanning_tree`` (the post-election application).  The
    Collect round-charging constants (``OMP_ROUNDS_PER_UNIT``,
    ``PRP_ROUNDS_PER_UNIT``, ``SDP_ROUNDS_PER_UNIT``,
    ``ROTATIONS_PER_PHASE``) are exported so analyses can state expected
    round counts in the paper's own units.

Shapes and geometry
    ``make_shape`` plus the named families (``hexagon``,
    ``hexagon_with_holes``, ``annulus``, ``random_blob``,
    ``random_holey_blob``, ``articulation_chain``, ``random_connected``),
    ``compute_metrics``, ``grid_distance`` and ``connected_components``.

Presentation and analysis
    ``render_system`` (ASCII art), ``format_table`` / ``format_records``
    / ``format_scaling_series`` / ``format_table1`` (result tables),
    ``summarize_scaling`` and ``fit_linear`` / ``fit_power_law``
    (scaling-law fits).

Streaming ledger analytics and dashboards
    ``RunLedger`` — the append-only JSONL run ledger every sweep writes,
    with streaming ``iter_entries()`` access; ``LedgerAggregator`` /
    ``StreamStat`` / ``aggregate_ledger`` — single-pass, fixed-memory
    grouped statistics (count, mean, Welford variance, histogram
    percentiles) over ledgers of any size; ``follow_entries`` — the
    torn-tail-tolerant live tail of a running sweep's ledger;
    ``compare_cohorts`` / ``compare_ledgers`` / ``CohortDelta`` —
    per-group deltas between two sweeps with the bench gate's noise
    margins; ``build_dashboard`` / ``render_dashboard_html`` /
    ``render_dashboard_markdown`` / ``DashboardBuilder`` — the
    deterministic, self-contained sweep dashboard behind
    ``repro dashboard``.
"""

from __future__ import annotations

from .amoebot.adversary import ADVERSARY_FACTORIES
from .amoebot.faults import FaultInjector, FaultSpec
from .amoebot.scheduler import (
    Scheduler,
    SchedulerResult,
    make_scheduler,
    run_algorithm,
)
from .amoebot.system import ParticleSystem
from .analysis.experiments import (
    ALGORITHMS,
    FAULT_ALGORITHMS,
    TABLE1_ALGORITHMS,
    TABLE1_FAMILIES,
    ExperimentRecord,
    run_experiment,
    run_scaling_experiment,
    run_table1_experiment,
)
from .analysis.dashboard import (
    Dashboard,
    DashboardBuilder,
    build_dashboard,
    render_dashboard_html,
    render_dashboard_markdown,
)
from .analysis.fitting import fit_linear, fit_power_law
from .analysis.robustness import (
    RobustnessCell,
    format_robustness_table,
    robustness_report,
    robustness_rows,
)
from .analysis.stream import (
    CohortDelta,
    GroupCell,
    LedgerAggregator,
    StreamStat,
    aggregate_entries,
    aggregate_ledger,
    compare_cohorts,
    compare_ledgers,
    follow_entries,
)
from .analysis.tables import (
    format_records,
    format_scaling_series,
    format_table,
    format_table1,
    summarize_scaling,
)
from .apps import SpanningTreeAlgorithm, verify_spanning_tree
from .baselines import run_erosion_election, run_randomized_election
from .core.collect import (
    OMP_ROUNDS_PER_UNIT,
    PRP_ROUNDS_PER_UNIT,
    ROTATIONS_PER_PHASE,
    SDP_ROUNDS_PER_UNIT,
    CollectSimulator,
)
from .core.dle import DLEAlgorithm, verify_unique_leader
from .core.full import ElectionOutcome, elect_leader, elect_leader_known_boundary
from .grid.coords import grid_distance
from .grid.generators import (
    annulus,
    articulation_chain,
    hexagon,
    hexagon_with_holes,
    make_shape,
    random_blob,
    random_connected,
    random_holey_blob,
)
from .grid.metrics import ShapeMetrics, compute_metrics
from .grid.shape import Shape, connected_components
from .orchestrator.pool import SweepResult, run_sweep
from .orchestrator.spec import RunConfig, SweepSpec, scaling_spec, table1_spec
from .orchestrator.store import LedgerReader, RunLedger
from .session import Session
from .state import CheckpointError
from .viz import render_system

__all__ = [
    "ADVERSARY_FACTORIES",
    "ALGORITHMS",
    "CheckpointError",
    "CohortDelta",
    "CollectSimulator",
    "DLEAlgorithm",
    "Dashboard",
    "DashboardBuilder",
    "ElectionOutcome",
    "ExperimentRecord",
    "FAULT_ALGORITHMS",
    "FaultInjector",
    "FaultSpec",
    "GroupCell",
    "LedgerAggregator",
    "LedgerReader",
    "OMP_ROUNDS_PER_UNIT",
    "PRP_ROUNDS_PER_UNIT",
    "ParticleSystem",
    "ROTATIONS_PER_PHASE",
    "RobustnessCell",
    "RunConfig",
    "RunLedger",
    "SDP_ROUNDS_PER_UNIT",
    "Scheduler",
    "SchedulerResult",
    "Session",
    "Shape",
    "ShapeMetrics",
    "SpanningTreeAlgorithm",
    "StreamStat",
    "SweepResult",
    "SweepSpec",
    "TABLE1_ALGORITHMS",
    "TABLE1_FAMILIES",
    "aggregate_entries",
    "aggregate_ledger",
    "annulus",
    "articulation_chain",
    "build_dashboard",
    "compare_cohorts",
    "compare_ledgers",
    "compute_metrics",
    "connected_components",
    "elect_leader",
    "elect_leader_known_boundary",
    "fit_linear",
    "fit_power_law",
    "follow_entries",
    "format_records",
    "format_robustness_table",
    "format_scaling_series",
    "format_table",
    "format_table1",
    "grid_distance",
    "hexagon",
    "hexagon_with_holes",
    "make_scheduler",
    "make_shape",
    "random_blob",
    "random_connected",
    "random_holey_blob",
    "render_dashboard_html",
    "render_dashboard_markdown",
    "render_system",
    "robustness_report",
    "robustness_rows",
    "run_algorithm",
    "run_erosion_election",
    "run_experiment",
    "run_randomized_election",
    "run_scaling_experiment",
    "run_sweep",
    "run_table1_experiment",
    "scaling_spec",
    "summarize_scaling",
    "table1_spec",
    "verify_spanning_tree",
    "verify_unique_leader",
]
