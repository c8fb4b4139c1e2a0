"""Experiment drivers shared by the examples and the benchmark harness.

Every driver takes a :class:`~repro.grid.shape.Shape`, builds a fresh
particle system, runs one algorithm (or pipeline) and returns an
:class:`ExperimentRecord` bundling the measured round count, a success flag
and the shape parameters the paper's bounds refer to.  The drivers are the
single source of truth for how the reproduction measures each algorithm, so
benchmarks, examples and EXPERIMENTS.md all agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..amoebot.system import ParticleSystem
from ..baselines.erosion import run_erosion_election
from ..baselines.randomized import run_randomized_election
from ..core.collect import CollectSimulator
from ..core.dle import DLEAlgorithm, verify_unique_leader
from ..core.full import elect_leader, elect_leader_known_boundary
from ..core.obd import OuterBoundaryDetection
from ..amoebot.scheduler import make_scheduler
from ..grid.metrics import ShapeMetrics, compute_metrics
from ..grid.shape import Shape
from ..state import CheckpointContext, run_checkpointed_stage

__all__ = [
    "ExperimentRecord",
    "ALGORITHMS",
    "FAULT_ALGORITHMS",
    "run_experiment",
    "run_scaling_experiment",
    "run_table1_experiment",
    "TABLE1_ALGORITHMS",
    "TABLE1_FAMILIES",
]


@dataclass
class ExperimentRecord:
    """One (algorithm, shape) measurement."""

    algorithm: str
    family: str
    size: int
    seed: int
    rounds: int
    succeeded: bool
    metrics: ShapeMetrics
    details: Dict[str, object] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary view used by the table formatter."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "family": self.family,
            "size": self.size,
            "rounds": self.rounds,
            "ok": self.succeeded,
        }
        row.update(self.metrics.as_dict())
        return row


def _fresh_system(shape: Shape, seed: int) -> ParticleSystem:
    return ParticleSystem.from_shape(shape, orientation_seed=seed)


# ---------------------------------------------------------------------------
# Individual algorithm drivers
# ---------------------------------------------------------------------------

def _run_dle(shape: Shape, seed: int, order: str = "random",
             engine: str = "sweep",
             checkpoint: Optional[CheckpointContext] = None,
             faults: str = "") -> Dict[str, object]:
    system = _fresh_system(shape, seed)
    algorithm = DLEAlgorithm()
    scheduler = make_scheduler(engine, order=order, seed=seed, faults=faults)
    result = run_checkpointed_stage(checkpoint, "dle", algorithm, system,
                                    scheduler, 1_000_000)
    succeeded = result.terminated
    if succeeded:
        try:
            verify_unique_leader(system)
        except Exception:
            succeeded = False
    return {
        "rounds": result.rounds,
        "succeeded": succeeded,
        "moves": result.moves,
        "connected_after": system.is_connected(),
        # Safety-violation detection for the robustness report: a run that
        # *terminated* without a verified unique leader elected wrongly;
        # one that merely failed to terminate lost liveness, not safety.
        "terminated": result.terminated,
    }


def _run_dle_collect(shape: Shape, seed: int, order: str = "random",
                     engine: str = "sweep",
                     checkpoint: Optional[CheckpointContext] = None,
                     ) -> Dict[str, object]:
    system = _fresh_system(shape, seed)
    outcome = elect_leader_known_boundary(system, reconnect=True,
                                          order=order, seed=seed,
                                          engine=engine, checkpoint=checkpoint)
    return {
        "rounds": outcome.total_rounds,
        "succeeded": outcome.reconnected and outcome.connected_after,
        "dle_rounds": outcome.dle_rounds,
        "collect_rounds": outcome.collect_rounds,
    }


def _run_collect_only(shape: Shape, seed: int, order: str = "random",
                      engine: str = "sweep",
                      checkpoint: Optional[CheckpointContext] = None,
                      ) -> Dict[str, object]:
    system = _fresh_system(shape, seed)
    algorithm = DLEAlgorithm()
    scheduler = make_scheduler(engine, order=order, seed=seed)
    run_checkpointed_stage(checkpoint, "dle", algorithm, system, scheduler,
                           1_000_000)
    leader = verify_unique_leader(system)
    result = CollectSimulator(system, leader).run()
    return {
        "rounds": result.rounds,
        "succeeded": result.connected,
        "phases": result.num_phases,
    }


def _run_obd(shape: Shape, seed: int, order: str = "random",
             engine: str = "sweep",
             checkpoint: Optional[CheckpointContext] = None,
             ) -> Dict[str, object]:
    # OBD is a synchronous primitive; neither the activation order, the
    # activation engine nor round-granular checkpointing applies.
    system = _fresh_system(shape, seed)
    result = OuterBoundaryDetection(system).run()
    expected = shape.outer_boundary
    succeeded = result.outer_boundary_points == set(expected)
    return {
        "rounds": result.rounds,
        "succeeded": succeeded,
        "competition_rounds": result.competition_rounds,
        "flood_rounds": result.flood_rounds,
        "num_boundaries": result.num_boundaries,
    }


def _run_full(shape: Shape, seed: int, order: str = "random",
              engine: str = "sweep",
              checkpoint: Optional[CheckpointContext] = None,
              ) -> Dict[str, object]:
    system = _fresh_system(shape, seed)
    outcome = elect_leader(system, reconnect=True, order=order,
                           seed=seed, engine=engine, checkpoint=checkpoint)
    return {
        "rounds": outcome.total_rounds,
        "succeeded": outcome.reconnected and outcome.connected_after,
        "obd_rounds": outcome.obd_rounds,
        "dle_rounds": outcome.dle_rounds,
        "collect_rounds": outcome.collect_rounds,
    }


def _run_erosion(shape: Shape, seed: int, order: str = "random",
                 engine: str = "sweep",
                 checkpoint: Optional[CheckpointContext] = None,
                 faults: str = "") -> Dict[str, object]:
    system = _fresh_system(shape, seed)
    outcome = run_erosion_election(system, order=order, seed=seed,
                                   engine=engine, checkpoint=checkpoint,
                                   faults=faults)
    return {
        "rounds": outcome.rounds,
        "succeeded": outcome.succeeded,
        "stalled": outcome.stalled,
        "num_leaders": outcome.num_leaders,
        "terminated": outcome.terminated,
    }


def _run_randomized(shape: Shape, seed: int, order: str = "random",
                    engine: str = "sweep",
                    checkpoint: Optional[CheckpointContext] = None,
                    faults: str = "") -> Dict[str, object]:
    # The randomized baseline drives its own internal phase schedule, so
    # neither the activation order nor the activation engine applies; its
    # ring elections finish in one shot, so there is nothing to checkpoint.
    system = _fresh_system(shape, seed)
    outcome = run_randomized_election(system, seed=seed)
    details: Dict[str, object] = {
        "rounds": outcome.rounds,
        "succeeded": outcome.succeeded,
        "phases": outcome.phases,
        "terminated": outcome.succeeded,
    }
    if faults:
        # The baseline charges its round counts analytically rather than
        # scheduling activations, so its fault plan is charged at the
        # same fidelity (see :func:`repro.amoebot.faults.
        # charged_fault_overlay`): a permanent crash on the charged
        # boundary ring stalls the traversal; transient crashes and
        # delays inflate the charged rounds by their outage lengths.
        from ..amoebot.faults import FaultSpec, charged_fault_overlay

        overlay = charged_fault_overlay(FaultSpec.parse(faults), system)
        details["fault_overlay"] = overlay
        if overlay["stalled"]:
            details["succeeded"] = False
            details["terminated"] = False
        else:
            details["rounds"] = int(details["rounds"]) \
                + int(overlay["extra_rounds"])
    return details


#: Registry of runnable algorithms / pipelines.  Every driver takes
#: ``(shape, seed, order, engine, checkpoint)`` where ``order`` is the
#: scheduler activation policy, ``engine`` the activation engine
#: (``"sweep"`` or ``"event"``) and ``checkpoint`` an optional
#: :class:`repro.state.CheckpointContext` making scheduler-driven stages
#: resumable; all three are ignored by the synchronous/self-scheduled
#: entries.
ALGORITHMS: Dict[str, Callable[..., Dict[str, object]]] = {
    "dle": _run_dle,
    "dle+collect": _run_dle_collect,
    "collect": _run_collect_only,
    "obd": _run_obd,
    "obd+dle+collect": _run_full,
    "erosion": _run_erosion,
    "randomized": _run_randomized,
}

#: Algorithms whose drivers accept a fault plan (``faults=`` spec string).
#: The pipeline drivers are excluded deliberately: their stage composition
#: (OBD hand-off, Collect's analytically-charged movement) assumes a
#: fault-free prefix, so a fault plan there would measure the harness, not
#: the algorithm.  :meth:`RunConfig.validate` enforces this.
FAULT_ALGORITHMS: frozenset = frozenset({"dle", "erosion", "randomized"})

#: Algorithms compared in the Table 1 reproduction, with the paper row each
#: stands for.
TABLE1_ALGORITHMS: Dict[str, str] = {
    "randomized": "[19]/[10] randomized, O(L_max) / O(L_out + D)",
    "erosion": "[22]/[27] deterministic erosion, O(n), no holes",
    "dle": "This paper, DLE with known boundary, O(D_A)",
    "obd+dle+collect": "This paper, full pipeline, O(L_out + D)",
}

#: Shape families used for the Table 1 reproduction.
TABLE1_FAMILIES: Sequence[str] = ("hexagon", "blob", "holey")


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def run_experiment(algorithm: str, shape: Shape, family: str = "custom",
                   size: int = 0, seed: int = 0,
                   metrics: Optional[ShapeMetrics] = None,
                   order: str = "random",
                   engine: str = "sweep",
                   checkpoint: Optional[CheckpointContext] = None,
                   faults: str = "",
                   ) -> ExperimentRecord:
    """Run one algorithm on one shape and return the measurement record."""
    try:
        driver = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
        ) from None
    if faults and algorithm not in FAULT_ALGORITHMS:
        raise ValueError(
            f"algorithm {algorithm!r} does not support fault injection; "
            f"fault-aware: {sorted(FAULT_ALGORITHMS)}")
    if metrics is None:
        metrics = compute_metrics(shape)
    # Only the FAULT_ALGORITHMS drivers take a fault plan.
    extra = {"faults": faults} if faults else {}
    details = driver(shape, seed, order, engine, checkpoint, **extra)
    rounds = int(details.pop("rounds"))
    succeeded = bool(details.pop("succeeded"))
    return ExperimentRecord(
        algorithm=algorithm,
        family=family,
        size=size,
        seed=seed,
        rounds=rounds,
        succeeded=succeeded,
        metrics=metrics,
        details=details,
    )


def run_scaling_experiment(algorithm: str, family: str, sizes: Iterable[int],
                           seed: int = 0, jobs: int = 1,
                           cache_dir: Optional[str] = None,
                           transport: Optional[object] = None,
                           ) -> List[ExperimentRecord]:
    """Run one algorithm on a growing sequence of shapes from one family.

    Thin front-end over :func:`repro.orchestrator.run_sweep`: ``jobs`` runs
    the ladder in parallel worker processes, ``cache_dir`` reuses
    previously-computed results, and ``transport`` (a name or a transport
    object such as :class:`~repro.orchestrator.queue.QueueTransport`)
    distributes the runs to remote workers.  Execution errors are
    re-raised, matching the historical serial-loop behaviour.
    """
    from ..orchestrator import run_sweep, scaling_spec

    spec = scaling_spec(algorithm, family, list(sizes), seed=seed)
    result = run_sweep(spec, jobs=jobs, cache=cache_dir, transport=transport)
    return result.raise_failures().records


def run_table1_experiment(sizes: Iterable[int] = (2, 3, 4), seed: int = 0,
                          families: Sequence[str] = TABLE1_FAMILIES,
                          algorithms: Optional[Sequence[str]] = None,
                          jobs: int = 1, cache_dir: Optional[str] = None,
                          transport: Optional[object] = None,
                          ) -> List[ExperimentRecord]:
    """Measurements behind the Table 1 reproduction.

    Every algorithm in ``algorithms`` (default: the Table 1 set) is run on
    every (family, size) pair, through the orchestrator (``jobs`` worker
    processes, optional result cache, optional remote ``transport``).
    Failures (e.g. the erosion baseline on holey shapes) are recorded, not
    raised — they are part of the comparison.
    """
    from ..orchestrator import run_sweep, table1_spec

    spec = table1_spec(sizes=list(sizes), seed=seed, families=families,
                       algorithms=algorithms)
    result = run_sweep(spec, jobs=jobs, cache=cache_dir, transport=transport)
    return result.raise_failures().records
