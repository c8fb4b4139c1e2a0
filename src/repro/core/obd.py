"""Primitive OBD — outer-boundary detection (Section 5 of the paper).

The primitive removes Algorithm DLE's assumption that particles initially
know which of their ports face the outer boundary.  No particle moves: the
particles on each global boundary simulate a *virtual ring* of v-nodes (one
v-node per local boundary of each boundary point, Section 2.1).  On each
ring the v-nodes run a segment-competition election, after which the
segments sum the boundary counts of the whole ring; by Observation 4 the sum
is ``+6`` exactly for the outer boundary and ``-6`` for every hole boundary.
The outer boundary then announces termination by flooding the particle
graph, which takes at most ``D`` additional rounds, for ``O(L_out + D)``
rounds overall (Theorem 41).

Fidelity note (see EXPERIMENTS.md, "Fidelity").  The v-node rings,
boundary counts, segment labels, the (size, label) comparison order, the
stable-boundary criterion of Theorem 36 and the final flooding (one
multi-source BFS from the outer boundary) are implemented exactly.  The
pipelined token trains of the lexicographic-comparison primitive (LCP) are
*not* reproduced message-by-message; instead the competition is simulated in
synchronous generations (all surviving segments compare with their
successors concurrently), which determines the final stable segments and
the outer/inner decision.  Because that synchronous schedule serialises
merges the paper's asynchronous pipelining performs concurrently, the
*round charge* of the competition is not taken from the generation count;
it uses the paper's own stabilisation bound (Lemma 35: a boundary of length
``L`` becomes stable within ``(2 k_c + 5) L`` rounds with ``k_c = 10``) plus
the stable-boundary check of Section 5.4.  The reported round count
therefore keeps the ``O(L_out + D)`` shape of Theorem 41 with explicit,
documented constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..amoebot.particle import Particle
from ..amoebot.system import ParticleSystem
from ..grid.coords import NUM_DIRECTIONS, Point, neighbor
from ..grid.metrics import flood_depth
from ..grid.shape import Shape, VirtualRing, VNode

__all__ = [
    "Segment",
    "BoundaryCompetitionResult",
    "BoundaryCompetition",
    "OBDResult",
    "OuterBoundaryDetection",
    "STABILIZATION_ROUNDS_PER_VNODE",
    "STABILITY_CHECK_ROUNDS_PER_VNODE",
    "OBD_OUTER_MEMORY_KEY",
]

#: Memory key under which OBD stores the detected per-port outer-face flags,
#: which DLE reads with ``outer_from_memory=True``.
OBD_OUTER_MEMORY_KEY = "obd_outer"

#: Rounds charged per v-node of a boundary ring for the whole segment
#: competition to stabilise.  Lemma 35 proves stabilisation within
#: ``(2 k_c + 5) L`` rounds for a boundary of ``L`` v-nodes, with ``k_c = 10``
#: the constant of the lexicographic-comparison primitive (Lemma 31).
STABILIZATION_ROUNDS_PER_VNODE = 25
#: Rounds charged per v-node of a final segment for the stable-boundary check
#: and the segment-sum verification (Section 5.4); the check compares the
#: segment with up to six neighbouring segments of the same size.
STABILITY_CHECK_ROUNDS_PER_VNODE = 6


@dataclass
class Segment:
    """A contiguous run of v-nodes on a virtual ring.

    ``start`` is the index of the segment's tail v-node on the ring and
    ``counts`` the boundary counts of its v-nodes in clockwise order (the
    segment's *label*)."""

    start: int
    counts: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def comparison_key(self) -> Tuple[int, Tuple[int, ...]]:
        """The paper's order: shorter segments are smaller; ties are broken
        lexicographically on the label."""
        return (self.size, self.counts)


@dataclass
class BoundaryCompetitionResult:
    """Outcome of the segment competition on one virtual ring."""

    rounds: int
    generations: int
    final_segments: List[Segment]
    ring_length: int
    total_count: int

    @property
    def is_outer(self) -> bool:
        """The decision rule of Observation 4: outer iff the counts sum to 6."""
        return self.total_count == 6

    @property
    def num_final_segments(self) -> int:
        return len(self.final_segments)


class BoundaryCompetition:
    """Segment competition on one virtual ring (Sections 5.2-5.4)."""

    def __init__(self, counts: Sequence[int]):
        if not counts:
            raise ValueError("a virtual ring has at least one v-node")
        self.counts: Tuple[int, ...] = tuple(int(c) for c in counts)

    def run(self) -> BoundaryCompetitionResult:
        ring_length = len(self.counts)
        segments: List[Segment] = [
            Segment(start=i, counts=(c,)) for i, c in enumerate(self.counts)
        ]
        generations = 0
        while True:
            if len(segments) == 1:
                break
            keys = [s.comparison_key() for s in segments]
            m = len(segments)
            killed = [keys[(i - 1) % m] < keys[i] for i in range(m)]
            if not any(killed):
                break
            generations += 1
            survivors_idx = [i for i in range(m) if not killed[i]]
            new_segments: List[Segment] = []
            for pos, i in enumerate(survivors_idx):
                next_survivor = survivors_idx[(pos + 1) % len(survivors_idx)]
                merged_counts: List[int] = list(segments[i].counts)
                j = (i + 1) % m
                # Absorb the (possibly empty) run of killed segments between
                # this survivor and the next one.  With a single survivor the
                # walk wraps all the way around and absorbs everything else.
                while j != next_survivor:
                    merged_counts.extend(segments[j].counts)
                    j = (j + 1) % m
                new_segments.append(
                    Segment(start=segments[i].start, counts=tuple(merged_counts))
                )
            segments = new_segments
        # Round charge (see the module docstring): stabilisation within
        # (2 k_c + 5) L rounds (Lemma 35) plus the stable-boundary check and
        # segment-sum verification over a final segment (Section 5.4).
        final_size = max(s.size for s in segments)
        rounds = (STABILIZATION_ROUNDS_PER_VNODE * ring_length
                  + STABILITY_CHECK_ROUNDS_PER_VNODE * final_size)
        total = sum(s.total for s in segments)
        return BoundaryCompetitionResult(
            rounds=rounds,
            generations=generations,
            final_segments=segments,
            ring_length=ring_length,
            total_count=total,
        )


@dataclass
class OBDResult:
    """Outcome of running the outer-boundary-detection primitive."""

    rounds: int
    competition_rounds: int
    announcement_rounds: int
    flood_rounds: int
    outer_ring_length: int
    num_boundaries: int
    #: Per-boundary competition results (outer boundary first).
    boundary_results: List[BoundaryCompetitionResult] = field(default_factory=list)
    #: Points of the shape lying on the detected outer boundary.
    outer_boundary_points: Set[Point] = field(default_factory=set)


class OuterBoundaryDetection:
    """Runs primitive OBD on a particle system and writes the detected
    per-port outer-face flags into each particle's memory
    (key :data:`OBD_OUTER_MEMORY_KEY`), in the format Algorithm DLE expects
    as its ``outer`` input."""

    name = "obd"

    def __init__(self, system: ParticleSystem):
        if not system.all_contracted():
            raise ValueError("OBD expects a contracted initial configuration")
        self.system = system

    def is_quiescent(self, particle: Particle, system: ParticleSystem) -> bool:
        """Explicit quiescence declaration for the event-driven engine.

        OBD is a synchronous primitive whose rounds are charged analytically
        (see the module docstring): no particle ever performs scheduler-driven
        work, so every particle is vacuously quiescent for the primitive's
        whole duration.  Pipelines that interleave OBD with scheduler-driven
        stages can therefore keep the whole system parked while it runs.
        """
        return True

    # -- main entry point ------------------------------------------------------

    def run(self) -> OBDResult:
        system = self.system
        shape = system.shape()
        if not shape.is_connected():
            raise ValueError("OBD requires a connected configuration")

        if len(shape) == 1:
            return self._run_single_particle()

        rings = shape.virtual_rings()
        boundary_results: List[BoundaryCompetitionResult] = []
        outer_result: Optional[BoundaryCompetitionResult] = None
        outer_ring: Optional[VirtualRing] = None
        for ring in rings:
            competition = BoundaryCompetition([v.count for v in ring.vnodes])
            result = competition.run()
            boundary_results.append(result)
            if result.is_outer:
                if outer_result is not None:
                    raise RuntimeError("OBD detected two outer boundaries")
                outer_result = result
                outer_ring = ring
        if outer_result is None or outer_ring is None:
            raise RuntimeError("OBD failed to detect an outer boundary")

        # Sanity: the Observation 4 decision must agree with the geometric
        # ground truth computed by the Shape substrate.
        if not outer_ring.is_outer:
            raise RuntimeError(
                "Observation 4 decision disagrees with the geometric outer "
                "boundary; this indicates a v-node construction bug"
            )

        outer_points = set(outer_ring.points)
        outer_vnodes: Set[VNode] = set(outer_ring.vnodes)

        # Write each particle's detected outer[] array: a port facing an
        # empty point is flagged outer iff that port's edge belongs to a
        # local boundary whose v-node lies on the outer ring.
        for particle in system.particles():
            flags = [False] * NUM_DIRECTIONS
            point = particle.head
            for vnode in shape.vnodes_of(point):
                if vnode not in outer_vnodes:
                    continue
                for direction in vnode.boundary:
                    flags[particle.direction_to_port(direction)] = True
            particle[OBD_OUTER_MEMORY_KEY] = flags

        # Termination announcement: one outer token travels around the outer
        # boundary (O(L_out) rounds), then the result is flooded through the
        # particle graph (at most D + 1 rounds).
        announcement_rounds = len(outer_ring)
        try:
            flood_rounds = flood_depth(outer_points,
                                       system.occupied_points()) + 1
        except ValueError:
            raise RuntimeError(
                "flooding could not reach every particle; the configuration "
                "is disconnected"
            ) from None

        competition_rounds = outer_result.rounds
        total_rounds = competition_rounds + announcement_rounds + flood_rounds
        return OBDResult(
            rounds=total_rounds,
            competition_rounds=competition_rounds,
            announcement_rounds=announcement_rounds,
            flood_rounds=flood_rounds,
            outer_ring_length=len(outer_ring),
            num_boundaries=len(rings),
            boundary_results=boundary_results,
            outer_boundary_points=outer_points,
        )

    # -- helpers ---------------------------------------------------------------

    def _run_single_particle(self) -> OBDResult:
        """A lone particle sees six empty neighbours, all on the outer face."""
        particle = self.system.particles()[0]
        particle[OBD_OUTER_MEMORY_KEY] = [True] * NUM_DIRECTIONS
        return OBDResult(
            rounds=1,
            competition_rounds=0,
            announcement_rounds=0,
            flood_rounds=1,
            outer_ring_length=0,
            num_boundaries=0,
            boundary_results=[],
            outer_boundary_points={particle.head},
        )
