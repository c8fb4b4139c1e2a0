"""End-to-end leader election pipelines composing the paper's components.

Two pipelines are provided, matching the two rows the paper contributes to
Table 1:

* :func:`elect_leader_known_boundary` — assumes particles initially know
  which ports face the outer boundary (the paper's first result) and runs
  Algorithm DLE followed, optionally, by Algorithm Collect.  Round
  complexity ``O(D_A)`` for election, ``O(D_A + D_G)`` with reconnection.
* :func:`elect_leader` — removes the assumption by running primitive OBD
  first, for ``O(L_out + D)`` rounds overall.

Both return an :class:`ElectionOutcome` bundling the elected leader, the
per-stage round counts and the final configuration facts that the test suite
checks (unique leader, everyone else follower, system connected again when
reconnection was requested).

Both accept an optional ``checkpoint``
(:class:`repro.state.CheckpointContext`): the scheduler-driven DLE stage
then saves resumable state every ``checkpoint.every`` rounds, and the
synchronous OBD stage records its round charge as a completed-stage
summary so a resumed run does not repeat it.  Algorithm Collect is a fast
one-shot simulation downstream of DLE; a run preempted during Collect
resumes from the last DLE checkpoint and re-derives it deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..amoebot.scheduler import SchedulerResult, make_scheduler
from ..amoebot.system import ParticleSystem
from ..grid.shape import Shape
from ..state import CheckpointContext, run_checkpointed_stage
from .collect import CollectResult, CollectSimulator
from .dle import DLEAlgorithm, verify_unique_leader
from .obd import OBDResult, OuterBoundaryDetection

__all__ = ["ElectionOutcome", "elect_leader_known_boundary", "elect_leader"]


@dataclass
class ElectionOutcome:
    """Result of an end-to-end leader-election run."""

    total_rounds: int
    dle_rounds: int
    obd_rounds: int = 0
    collect_rounds: int = 0
    leader_point: Optional[tuple] = None
    connected_after: bool = False
    reconnected: bool = False
    #: Underlying per-stage results, for detailed inspection.  ``obd_result``
    #: is None when a resumed run replayed the stage from its checkpointed
    #: summary instead of re-running it.
    dle_result: Optional[SchedulerResult] = None
    obd_result: Optional[OBDResult] = None
    collect_result: Optional[CollectResult] = None

    def stage_rounds(self) -> Dict[str, int]:
        """Round counts per pipeline stage."""
        return {
            "obd": self.obd_rounds,
            "dle": self.dle_rounds,
            "collect": self.collect_rounds,
            "total": self.total_rounds,
        }


def _run_dle(system: ParticleSystem, outer_from_memory: bool,
             order: str, seed: int, max_rounds: int,
             engine: str = "sweep",
             checkpoint: Optional[CheckpointContext] = None,
             ) -> tuple[DLEAlgorithm, SchedulerResult]:
    algorithm = DLEAlgorithm(outer_from_memory=outer_from_memory)
    scheduler = make_scheduler(engine, order=order, seed=seed)
    result = run_checkpointed_stage(checkpoint, "dle", algorithm, system,
                                    scheduler, max_rounds)
    if not result.terminated:
        raise RuntimeError(
            f"Algorithm DLE did not terminate within {max_rounds} rounds"
        )
    return algorithm, result


def _run_collect(system: ParticleSystem) -> CollectResult:
    leader = verify_unique_leader(system)
    simulator = CollectSimulator(system, leader)
    return simulator.run()


def elect_leader_known_boundary(system: ParticleSystem,
                                reconnect: bool = True,
                                order: str = "random",
                                seed: int = 0,
                                max_rounds: int = 1_000_000,
                                engine: str = "sweep",
                                checkpoint: Optional[CheckpointContext] = None,
                                ) -> ElectionOutcome:
    """Leader election under the known-outer-boundary assumption.

    Runs Algorithm DLE (faithful per-activation execution) and, when
    ``reconnect`` is true, Algorithm Collect to restore connectivity.
    ``engine`` selects the activation engine for the DLE stage (``"sweep"``
    or ``"event"``; both produce identical traces and round counts).
    """
    _, dle_result = _run_dle(system, outer_from_memory=False,
                             order=order, seed=seed,
                             max_rounds=max_rounds, engine=engine,
                             checkpoint=checkpoint)
    leader = verify_unique_leader(system)
    collect_result: Optional[CollectResult] = None
    collect_rounds = 0
    if reconnect:
        collect_result = _run_collect(system)
        collect_rounds = collect_result.rounds
    return ElectionOutcome(
        total_rounds=dle_result.rounds + collect_rounds,
        dle_rounds=dle_result.rounds,
        collect_rounds=collect_rounds,
        leader_point=leader.head,
        connected_after=system.is_connected(),
        reconnected=bool(collect_result and collect_result.connected),
        dle_result=dle_result,
        collect_result=collect_result,
    )


def elect_leader(system: ParticleSystem,
                 reconnect: bool = True,
                 order: str = "random",
                 seed: int = 0,
                 max_rounds: int = 1_000_000,
                 engine: str = "sweep",
                 checkpoint: Optional[CheckpointContext] = None
                 ) -> ElectionOutcome:
    """Leader election without the known-boundary assumption.

    Runs primitive OBD first (``O(L_out + D)`` rounds), feeds the detected
    boundary information to Algorithm DLE, and optionally reconnects with
    Algorithm Collect.  ``engine`` selects the activation engine for the
    scheduler-driven DLE stage.
    """
    obd_result: Optional[OBDResult] = None
    obd_summary = (checkpoint.completed_stage("obd")
                   if checkpoint is not None else None)
    if obd_summary is not None:
        # A resumed run: the particles' detected-boundary flags live in the
        # restored memories, only the stage's round charge is replayed.
        obd_rounds = int(obd_summary["rounds"])
    else:
        obd = OuterBoundaryDetection(system)
        obd_result = obd.run()
        obd_rounds = obd_result.rounds
        if checkpoint is not None:
            checkpoint.complete_stage("obd", {"rounds": obd_rounds})
    _, dle_result = _run_dle(system, outer_from_memory=True,
                             order=order, seed=seed,
                             max_rounds=max_rounds, engine=engine,
                             checkpoint=checkpoint)
    leader = verify_unique_leader(system)
    collect_result: Optional[CollectResult] = None
    collect_rounds = 0
    if reconnect:
        collect_result = _run_collect(system)
        collect_rounds = collect_result.rounds
    return ElectionOutcome(
        total_rounds=obd_rounds + dle_result.rounds + collect_rounds,
        dle_rounds=dle_result.rounds,
        obd_rounds=obd_rounds,
        collect_rounds=collect_rounds,
        leader_point=leader.head,
        connected_after=system.is_connected(),
        reconnected=bool(collect_result and collect_result.connected),
        dle_result=dle_result,
        obd_result=obd_result,
        collect_result=collect_result,
    )
