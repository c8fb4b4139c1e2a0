"""Erosion-only deterministic leader election (baseline, no movement).

This baseline represents the family of deterministic algorithms that elect a
leader by *eroding* boundary particles without ever moving them — Di Luna et
al. [22] and Gastineau et al. [27] in the paper's Table 1.  Those algorithms
require the initial shape to be **hole-free**: a particle occupying a
strictly-convex-and-erodable point of the current candidate set withdraws
(becomes a follower), and the last remaining candidate is the leader.

The implementation is Algorithm DLE's SCE election
(:class:`repro.core.dle.SCEElection`) with three differences: the eligible
set starts as the *occupied points only* (there is no hole to include when
the shape is hole-free), particles never move, and a round in which every
activation was a no-op stalls the run.  On a hole-free shape the area is
the occupied set and no eroding particle finds an empty eligible point, so
the run is DLE's, round for round.  On a shape with holes the erosion
stalls (no SCE point of the remaining candidate set is guaranteed to exist
once the candidate set wraps around a hole) or elects several leaders;
:func:`run_erosion_election` detects both failure modes and reports them,
which the benchmark harness uses to reproduce the "No holes" restriction
column of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, Optional

from ..amoebot.algorithm import (
    QUIESCENT,
    STATUS_FOLLOWER,
    STATUS_KEY,
    STATUS_LEADER,
)
from ..amoebot.particle import Particle
from ..amoebot.scheduler import make_scheduler
from ..amoebot.system import ParticleSystem
from ..core.dle import SCEElection
from ..grid.coords import Point
from ..grid.shape import Shape
from ..state import CheckpointContext, run_checkpointed_stage

__all__ = ["ErosionLeaderElection", "ErosionOutcome", "run_erosion_election"]


class ErosionLeaderElection(SCEElection):
    """SCE-erosion leader election without movement (hole-free shapes)."""

    name = "erosion-baseline"
    expands = False

    def __init__(self) -> None:
        super().__init__()
        #: Activations this round that did not report ``QUIESCENT`` (stall
        #: detection).  Without expansion nothing ever contracts, so only
        #: a no-op activation reports it.
        self._changes_this_round = 0
        #: Set once a full round passes with no change and no termination.
        self.stalled = False

    def initial_eligible(self, shape: Shape) -> AbstractSet[Point]:
        return shape.points

    def setup(self, system: ParticleSystem) -> None:
        super().setup(system)
        self.stalled = False
        self._changes_this_round = 0

    def activate(self, particle: Particle, system: ParticleSystem) -> object:
        acted = super().activate(particle, system)
        if acted is not QUIESCENT:
            self._changes_this_round += 1
        return acted

    # -- termination --------------------------------------------------------------

    def is_terminated(self, particle: Particle, system: ParticleSystem) -> bool:
        return self.stalled or super().is_terminated(particle, system)

    def has_terminated(self, system: ParticleSystem) -> bool:
        # The stall flag terminates everyone at once.
        return self.stalled or super().has_terminated(system)

    def on_round_end(self, round_index: int, system: ParticleSystem) -> None:
        if self._changes_this_round == 0:
            # Nothing changed during a whole round: the configuration is a
            # fixed point, so it will never change again.  On hole-free
            # shapes this only happens after termination; with holes it is
            # the stall the paper's Table 1 restrictions predict.
            if self._terminated_count < len(system):
                self.stalled = True
        self._changes_this_round = 0

    # -- checkpoint state protocol -------------------------------------------

    def snapshot_state(self, system: ParticleSystem) -> Dict[str, Any]:
        """The SCE election's state plus the stall detector's.  Taken at
        round boundaries, where ``_changes_this_round`` has just been reset
        by :meth:`on_round_end` — it is serialized anyway for exactness."""
        state = super().snapshot_state(system)
        state["changes_this_round"] = self._changes_this_round
        state["stalled"] = self.stalled
        return state

    def restore_state(self, state: Dict[str, Any],
                      system: ParticleSystem) -> None:
        super().restore_state(state, system)
        self._changes_this_round = int(state["changes_this_round"])
        self.stalled = bool(state["stalled"])


@dataclass
class ErosionOutcome:
    """Result of running the erosion baseline."""

    rounds: int
    succeeded: bool
    stalled: bool
    num_leaders: int
    leader_point: Optional[Point] = None
    #: Whether the scheduler run terminated (vs hitting the round cap).
    #: ``terminated and not succeeded`` distinguishes a *wrong* final
    #: answer (a safety violation — e.g. zero or several leaders under
    #: fault injection) from a mere liveness loss.
    terminated: bool = True


def run_erosion_election(system: ParticleSystem, order: str = "random",
                         seed: int = 0,
                         max_rounds: Optional[int] = None,
                         engine: str = "sweep",
                         checkpoint: Optional[CheckpointContext] = None,
                         faults: str = ""
                         ) -> ErosionOutcome:
    """Run the erosion baseline and classify the outcome.

    ``succeeded`` is True only when a unique leader was elected and every
    other particle is a follower.  On shapes with holes the run typically
    ends ``stalled`` (the documented restriction of this algorithm family).
    ``engine`` selects the activation engine (``"sweep"`` or ``"event"``);
    ``checkpoint`` is an optional
    :class:`repro.state.CheckpointContext` making the run resumable;
    ``faults`` is a :class:`repro.amoebot.faults.FaultSpec` spec string
    ("" = no fault injection).
    """
    if max_rounds is None:
        max_rounds = 10 * len(system) + 100
    algorithm = ErosionLeaderElection()
    scheduler = make_scheduler(engine, order=order, seed=seed, faults=faults)
    result = run_checkpointed_stage(checkpoint, "erosion", algorithm, system,
                                    scheduler, max_rounds)
    leaders = [p for p in system.particles() if p.get(STATUS_KEY) == STATUS_LEADER]
    followers = [p for p in system.particles() if p.get(STATUS_KEY) == STATUS_FOLLOWER]
    succeeded = (
        not algorithm.stalled
        and result.terminated
        and len(leaders) == 1
        and len(leaders) + len(followers) == len(system)
    )
    return ErosionOutcome(
        rounds=result.rounds,
        succeeded=succeeded,
        stalled=algorithm.stalled,
        num_leaders=len(leaders),
        leader_point=leaders[0].head if len(leaders) == 1 else None,
        terminated=result.terminated,
    )
