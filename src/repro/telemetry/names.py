"""The declared instrument-name registry.

The metrics registry creates counters/gauges/histograms on first use, so
a typo at a recording site silently forks a metric into two series and
every consumer downstream — the ``--summary-json`` metrics block, the CI
schema checks, ``repro status`` — quietly under-counts.  This module is
the single declaration point: every instrument name recorded anywhere in
``repro`` is listed here, and the ``T302`` rule of :mod:`repro.lint`
cross-checks recording sites against it statically.

Adding an instrument is a two-line change: record through
``counter("x.y")`` at the site, add ``"x.y"`` here.  Dynamically
composed names (``f"engine.{engine}.rounds"``) are covered by the
prefix/suffix tables below.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

__all__ = [
    "KNOWN_METRICS",
    "KNOWN_METRIC_PREFIXES",
    "KNOWN_METRIC_SUFFIXES",
    "is_known_metric",
    "matches_known_fragment",
]

#: Every statically-named instrument the package records.
KNOWN_METRICS: FrozenSet[str] = frozenset({
    # result cache (orchestrator/cache.py)
    "cache.hits", "cache.misses", "cache.puts", "cache.races",
    # run ledger (orchestrator/store.py)
    "ledger.appends", "ledger.gave_ups", "ledger.resume_skips",
    # filesystem task queue (orchestrator/queue.py)
    "queue.claims", "queue.completes", "queue.enqueued",
    "queue.heartbeats", "queue.reclaims", "queue.retries",
    # shape snapshots: face floods (grid/shape.py) and the system's
    # snapshot rebuilds (amoebot/system.py)
    "shape.face_floods", "shape.rebuilds",
    # exact shape metrics (grid/metrics.py): one per breadth-first search
    "metrics.bfs_runs",
    # sweep outcome counters (orchestrator/pool.py); the per-source
    # counter is "sweep." + source with "-" mapped to "_"
    "sweep.executed", "sweep.cached", "sweep.resumed", "sweep.gave_up",
    "sweep.failed",
    # checkpoint lifecycle (state.py)
    "checkpoint.saves", "checkpoint.loads", "checkpoint.discards",
    # engine run totals (amoebot/scheduler.py); the per-engine counters
    # are "engine.<engine>." + suffix
    "engine.sweep.runs", "engine.sweep.rounds", "engine.sweep.activations",
    "engine.sweep.skipped", "engine.sweep.moves",
    "engine.event.runs", "engine.event.rounds", "engine.event.activations",
    "engine.event.skipped", "engine.event.moves",
    "engine.event.parks", "engine.event.wakes",
    # fault-injection totals (amoebot/faults.py via amoebot/scheduler.py);
    # published once per run as "fault." + injector counter name
    "fault.crashes", "fault.revives", "fault.shape_adds",
    "fault.shape_removes", "fault.view_refreshes",
    # sweep dashboard renderer (analysis/dashboard.py)
    "dashboard.builds", "dashboard.watch_ticks",
    # streaming ledger analytics (analysis/stream.py); recorded once per
    # fold/comparison, never per ledger line
    "report.stream_entries", "report.cohort_cells",
})

#: Literal *prefixes* of dynamically-composed names (``prefix + tail``).
KNOWN_METRIC_PREFIXES: Tuple[str, ...] = (
    "engine.sweep.", "engine.event.", "engine.", "sweep.", "fault.",
)

#: Literal *suffixes* of dynamically-composed names (``head + suffix``).
KNOWN_METRIC_SUFFIXES: FrozenSet[str] = frozenset({
    "runs", "rounds", "activations", "skipped", "moves",
})


def is_known_metric(name: str) -> bool:
    """Is ``name`` a declared instrument name (exact or via a declared
    dynamic prefix)?"""
    return name in KNOWN_METRICS or name.startswith(KNOWN_METRIC_PREFIXES)


def matches_known_fragment(fragment: str, exact: bool = False) -> bool:
    """Used by the lint rule: does a literal fragment of a (possibly
    dynamically composed) metric-name expression match the registry?

    With ``exact=True`` the fragment is a complete name and must satisfy
    :func:`is_known_metric`; otherwise it may also be a declared prefix
    or suffix of a composed name.
    """
    if exact:
        return is_known_metric(fragment)
    return (is_known_metric(fragment)
            or fragment in KNOWN_METRIC_SUFFIXES
            or any(fragment == prefix or prefix.startswith(fragment)
                   for prefix in KNOWN_METRIC_PREFIXES))
