"""Randomized boundary leader election (baseline, in the spirit of [19]).

Derakhshandeh et al. [19] elect a unique leader with a randomized algorithm
running on the boundaries of the particle system: candidates on a boundary
repeatedly use coin flips to defeat their clockwise neighbours until one
candidate per boundary survives, and the overall leader is chosen on the
outer boundary.  Its expected round complexity is ``O(L_max)``; the later
refinement by Daymude et al. [10, 11] achieves ``O(L_out + D)`` w.h.p.  The
paper's contribution is matching these bounds *deterministically*.

This module reproduces the baseline at the same fidelity level as the OBD
primitive (see EXPERIMENTS.md, "Fidelity"): the virtual rings, candidate
sets, coin flips and eliminations are simulated explicitly (seeded and
reproducible), and the round cost of each phase is charged from the
structure of the computation — a phase in which the surviving candidates
are separated by gaps of at most ``g`` v-nodes costs ``O(g)`` rounds of
concurrent token traffic, the final confirmation lap costs one traversal of
the ring, and the announcement is a flood over the particle graph (``O(D)``
rounds).

The measured quantity (expected rounds as a function of ``L_out + D``) is
what Table 1 compares against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..amoebot.system import ParticleSystem
from ..grid.metrics import flood_depth
from ..grid.shape import Shape, VirtualRing

__all__ = ["RandomizedElectionOutcome", "RandomizedBoundaryElection",
           "run_randomized_election"]

#: Rounds charged per v-node of the largest inter-candidate gap in one
#: coin-flip phase (token exchange between consecutive candidates).
PHASE_ROUNDS_PER_GAP_VNODE = 2
#: Rounds charged for the final confirmation lap, per v-node of the ring.
CONFIRMATION_ROUNDS_PER_VNODE = 1


@dataclass
class RingElection:
    """Statistics of the candidate elimination on one virtual ring."""

    ring_length: int
    phases: int
    rounds: int
    winner_index: int


@dataclass
class RandomizedElectionOutcome:
    """Result of the randomized baseline."""

    rounds: int
    phases: int
    leader_point: Optional[tuple]
    ring_rounds: int
    flood_rounds: int
    per_ring: List[RingElection] = field(default_factory=list)
    succeeded: bool = True


class RandomizedBoundaryElection:
    """Randomized candidate elimination on the virtual boundary rings."""

    name = "randomized-baseline"

    def __init__(self, system: ParticleSystem, seed: int = 0):
        if not system.all_contracted():
            raise ValueError("the baseline expects a contracted configuration")
        self.system = system
        self.rng = random.Random(seed)

    # -- per-ring election -------------------------------------------------------

    def _elect_on_ring(self, ring: VirtualRing) -> RingElection:
        length = len(ring)
        if length == 1:
            return RingElection(ring_length=1, phases=0, rounds=1, winner_index=0)
        candidates: List[int] = list(range(length))
        rounds = 0
        phases = 0
        while len(candidates) > 1:
            phases += 1
            flips = {c: self.rng.randrange(2) for c in candidates}
            # A candidate is eliminated when it flipped tails and its
            # counter-clockwise predecessor candidate flipped heads.
            survivors: List[int] = []
            m = len(candidates)
            for idx, c in enumerate(candidates):
                predecessor = candidates[(idx - 1) % m]
                if flips[c] == 0 and flips[predecessor] == 1:
                    continue
                survivors.append(c)
            if not survivors:
                survivors = candidates  # cannot happen, defensive only
            # Round cost: tokens travel between consecutive candidates, all
            # gaps in parallel; the phase finishes when the largest gap has
            # been traversed.
            max_gap = self._max_gap(candidates, length)
            rounds += PHASE_ROUNDS_PER_GAP_VNODE * max_gap
            candidates = survivors
        rounds += CONFIRMATION_ROUNDS_PER_VNODE * length
        return RingElection(
            ring_length=length,
            phases=phases,
            rounds=rounds,
            winner_index=candidates[0],
        )

    @staticmethod
    def _max_gap(candidates: List[int], ring_length: int) -> int:
        if len(candidates) <= 1:
            return ring_length
        gaps = []
        for idx, c in enumerate(candidates):
            nxt = candidates[(idx + 1) % len(candidates)]
            gap = (nxt - c) % ring_length
            gaps.append(gap if gap > 0 else ring_length)
        return max(gaps)

    # -- full run ------------------------------------------------------------------

    def run(self) -> RandomizedElectionOutcome:
        system = self.system
        shape = system.shape()
        if not shape.is_connected():
            raise ValueError("the baseline requires a connected configuration")
        if len(shape) == 1:
            only = system.particles()[0]
            return RandomizedElectionOutcome(
                rounds=1, phases=0, leader_point=only.head,
                ring_rounds=0, flood_rounds=1, per_ring=[], succeeded=True,
            )
        rings = shape.virtual_rings()
        per_ring: List[RingElection] = []
        outer_election: Optional[RingElection] = None
        outer_ring: Optional[VirtualRing] = None
        for ring in rings:
            election = self._elect_on_ring(ring)
            per_ring.append(election)
            # The outer boundary is recognised through the boundary-count sum
            # (Observation 4), exactly as in the deterministic algorithms.
            if ring.total_count == 6:
                outer_election = election
                outer_ring = ring
        if outer_election is None or outer_ring is None:
            raise RuntimeError("no outer boundary ring found")
        leader_vnode = outer_ring.vnodes[outer_election.winner_index]
        leader_point = leader_vnode.point

        # Boundaries are processed concurrently; the outer boundary gates the
        # announcement, every other boundary is cancelled by the flood.
        ring_rounds = outer_election.rounds
        flood_rounds = flood_depth([leader_point],
                                   system.occupied_points()) + 1
        total = ring_rounds + flood_rounds
        return RandomizedElectionOutcome(
            rounds=total,
            phases=outer_election.phases,
            leader_point=leader_point,
            ring_rounds=ring_rounds,
            flood_rounds=flood_rounds,
            per_ring=per_ring,
            succeeded=True,
        )


def run_randomized_election(system: ParticleSystem,
                            seed: int = 0) -> RandomizedElectionOutcome:
    """Convenience wrapper mirroring :func:`run_erosion_election`."""
    return RandomizedBoundaryElection(system, seed=seed).run()
