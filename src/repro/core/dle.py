"""Algorithm DLE — Disconnecting Leader Election (Section 4.1 of the paper).

This is a faithful, per-activation implementation of the paper's pseudocode
(page 11), written as :class:`SCEElection`, the rule DLE shares with the
erosion baseline of Table 1, plus two small subclasses.  Every particle keeps

* ``outer[0..5]`` — the read-only input stating, for each head port, whether
  the neighbouring point lies on the outer face of the *initial* shape
  (the "boundary known initially" assumption; it is discharged by the OBD
  primitive in :mod:`repro.core.obd`), and
* ``eligible[0..5]`` — whether the point behind each head port is still in
  the eligible set ``S_e``.

The eligible set starts as :meth:`SCEElection.initial_eligible` of the
initial shape and only shrinks.  An activated, contracted, undecided
particle occupying a strictly-convex-and-erodable (SCE) point of ``S_e``
removes its point from ``S_e``.  If its class sets
:attr:`~SCEElection.expands` and the removal uncovers an empty eligible
point, it expands into it (moving "inwards"); otherwise it becomes a
follower.  The last particle whose point remains eligible becomes the
leader.

:class:`DLEAlgorithm` starts from the area of the initial shape (occupied
points plus hole points) and expands, so the particle system may
disconnect during the execution — that is the algorithm's distinguishing
feature — and can be reconnected afterwards by
:class:`repro.core.collect.CollectSimulator`.  The erosion baseline
(:class:`repro.baselines.erosion.ErosionLeaderElection`) starts from the
occupied points and never moves.

Instrumentation: the algorithm object mirrors ``S_e`` in
:attr:`SCEElection.eligible_points` (never read by particle code) so tests
can check the invariants of Lemma 11 and Lemma 19 and experiments can report
the erosion progress.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, List, Optional, Set

from ..amoebot.algorithm import (
    QUIESCENT,
    STATUS_FOLLOWER,
    STATUS_KEY,
    STATUS_LEADER,
    STATUS_UNDECIDED,
    TERMINATED,
    AmoebotAlgorithm,
    is_sce_flag_arc,
)
from ..amoebot.particle import Particle
from ..amoebot.system import ParticleSystem
from ..grid.coords import (
    NUM_DIRECTIONS,
    Point,
    neighbor,
    neighbors_interned,
)
from ..grid.packed import pack_point, packed_neighbors
from ..grid.shape import Shape
from .obd import OBD_OUTER_MEMORY_KEY

__all__ = ["DLEAlgorithm", "LeaderElectionError", "SCEElection",
           "verify_unique_leader"]

OUTER_KEY = "outer"
ELIGIBLE_KEY = "eligible"
TERMINATED_KEY = "terminated"


class LeaderElectionError(RuntimeError):
    """Raised when a leader-election postcondition is violated."""


def verify_unique_leader(system: ParticleSystem) -> Particle:
    """Check the (disconnecting) leader-election predicate and return the
    unique leader.

    Raises :class:`LeaderElectionError` if there is not exactly one leader or
    if some particle is neither leader nor follower.
    """
    leaders = []
    followers = 0
    for p in system._particles.values():
        status = p.memory.get(STATUS_KEY)
        if status == STATUS_LEADER:
            leaders.append(p)
        elif status == STATUS_FOLLOWER:
            followers += 1
    if len(leaders) != 1:
        raise LeaderElectionError(
            f"expected exactly one leader, found {len(leaders)}"
        )
    if len(leaders) + followers != len(system):
        undecided = len(system) - len(leaders) - followers
        raise LeaderElectionError(
            f"{undecided} particles are neither leader nor follower"
        )
    return leaders[0]


#: Per-orientation port -> ring-index tables: ``_ROTATIONS[o][port]`` is
#: ``(port + o) % 6``, precomputed so setup's per-particle loop avoids six
#: modulo operations per particle; ``_INVERSE[o][d]`` is ``(d - o) % 6``,
#: the direction -> port translation used per erosion step.
_ROTATIONS = tuple(
    tuple((port + o) % NUM_DIRECTIONS for port in range(NUM_DIRECTIONS))
    for o in range(NUM_DIRECTIONS)
)
_INVERSE = tuple(
    tuple((d - o) % NUM_DIRECTIONS for d in range(NUM_DIRECTIONS))
    for o in range(NUM_DIRECTIONS)
)


def _area_flags(particle: Particle,
                eligible_area: AbstractSet[Point]) -> List[bool]:
    """Line 6: per head port, whether the neighbour is in the eligible
    area (at set-up, :meth:`SCEElection.initial_eligible`); computed
    C-side."""
    adjacent = neighbors_interned(particle.head)
    return list(map(
        eligible_area.__contains__,
        map(adjacent.__getitem__, _ROTATIONS[particle.orientation])))


class SCEElection(AmoebotAlgorithm):
    """Leader election by eroding the SCE points of an eligible set,
    executed per atomic activation.

    Subclasses declare where the eligible set starts
    (:meth:`initial_eligible`) and whether an eroding particle moves into
    an empty eligible point it uncovers (:attr:`expands`); everything
    else — the flags, the SCE step, quiescence, termination and the
    checkpoint state — is this class."""

    reports_termination = True
    reports_quiescence = True
    #: An expansion next to a parked particle changes no flags and removes
    #: no undecided neighbour, so pure occupancy gains never wake (see the
    #: base-class attribute for the full contract).  The election performs
    #: no handovers, so the owner-switch caveat does not apply.
    occupancy_gain_wakes = False
    #: Whether an eroding particle expands into an empty eligible neighbour
    #: (lines 20-26); without it every eroding particle becomes a follower.
    expands = True

    def __init__(self, outer_from_memory: bool = False) -> None:
        """``outer_from_memory`` makes setup read the ``outer`` input arrays
        from particle memory (key ``obd_outer``) instead of computing them
        from the initial shape; this is how the OBD primitive discharges the
        known-boundary assumption."""
        self.outer_from_memory = outer_from_memory
        #: Instrumentation mirror of the eligible set ``S_e``.
        self.eligible_points: Set[Point] = set()
        #: The last eligible point (the leader's point ``l``), once known.
        self.leader_point: Optional[Point] = None
        #: Number of points removed from ``S_e`` so far.
        self.erosions = 0
        #: Particles whose ``terminated`` flag is set (termination is
        #: absorbing, so a counter makes ``has_terminated`` O(1)).
        self._terminated_count = 0
        self._population = 0
        #: Ids of the undecided contracted particles whose next activation
        #: provably acts (no eligible ports left, or SCE flags) — the
        #: algorithm-side mirror of the quiescence predicate, maintained at
        #: every flag-write site so :meth:`is_quiescent` is one set probe.
        self._actionable: Set[int] = set()
        #: decided pid -> lower bound on its undecided-neighbour count.
        #: Decremented when an adjacent particle decides; a decided
        #: neighbour is only woken once its count runs out, sparing the
        #: event engine one examine/re-park cycle per early decision.
        #: Never an overcount (initialised from head-adjacency or an exact
        #: scan), so a zero is at worst premature — the examination
        #: re-checks and re-parks; departures of counted neighbours are
        #: caught by the movement wake, which refreshes the count exactly
        #: (:meth:`is_quiescent`).
        self._waiting: Dict[int, int] = {}

    def initial_eligible(self, shape: Shape) -> AbstractSet[Point]:
        """The points of the initial shape that start in ``S_e``."""
        raise NotImplementedError

    # -- setup ----------------------------------------------------------------

    def setup(self, system: ParticleSystem) -> None:
        initial_shape = system.shape()
        if not initial_shape.is_connected():
            raise ValueError(f"{self.name} requires a connected configuration")
        if not system.all_contracted():
            raise ValueError(f"{self.name} requires a contracted configuration")
        eligible_area = self.initial_eligible(initial_shape)
        self.eligible_points = set(eligible_area)
        self.leader_point = None
        self.erosions = 0
        self._terminated_count = 0
        self._population = len(system)
        self._waiting = {}
        self._actionable = set()
        for particle in system.particles():
            if self.outer_from_memory:
                stored = particle.get(OBD_OUTER_MEMORY_KEY)
                if stored is None or len(stored) != NUM_DIRECTIONS:
                    raise ValueError(
                        "outer_from_memory=True but particle has no "
                        f"{OBD_OUTER_MEMORY_KEY!r} array of length 6"
                    )
                self._initialise(particle, [not flag for flag in stored])
            else:
                self._initialise(particle, _area_flags(particle,
                                                       eligible_area))

    def admit(self, particle: Particle, system: ParticleSystem) -> None:
        """Start a particle a shape fault added mid-run undecided, its
        flags read against the current eligible set ``S_e`` the way
        set-up reads them against the initial one."""
        self._initialise(particle, _area_flags(particle, self.eligible_points))
        self._population += 1

    def _initialise(self, particle: Particle, eligible: List[bool]) -> None:
        """The initialization block (lines 5-7) for one particle with the
        eligibility flags ``eligible``; the OBD input stays in memory."""
        particle.memory.update({
            OUTER_KEY: [not flag for flag in eligible],
            STATUS_KEY: STATUS_UNDECIDED,
            TERMINATED_KEY: False,
            ELIGIBLE_KEY: eligible,
        })
        if True not in eligible or is_sce_flag_arc(eligible):
            self._actionable.add(particle.particle_id)

    # -- termination ------------------------------------------------------------

    def is_terminated(self, particle: Particle, system: ParticleSystem) -> bool:
        return particle.memory.get(TERMINATED_KEY) is True

    def has_terminated(self, system: ParticleSystem) -> bool:
        # The terminated flag is set in exactly one place and never cleared,
        # so the counter kept there replaces the default O(n) scan.  Fall
        # back to the scan if this system is not the one setup() and
        # admit() counted (a shape fault removed a particle).
        n = len(system)
        if n != self._population:
            return super().has_terminated(system)
        return self._terminated_count >= n

    # -- quiescence (event-driven engine) ---------------------------------------

    def is_quiescent(self, particle: Particle, system: ParticleSystem) -> bool:
        """Activating the particle is a no-op exactly when it is contracted
        and (a) decided with an undecided neighbour (lines 10-11 wait) or
        (b) undecided, with eligible neighbours left, at a non-SCE point
        (line 16 fails).  Both conditions depend only on the particle's own
        flags and its neighbours' statuses, which can only change when a
        neighbour acts — the wake condition of the event engine."""
        if particle.head != particle.tail:
            return False  # line 9 would contract it
        memory = particle.memory
        if memory[STATUS_KEY] != STATUS_UNDECIDED:
            # Lines 10-11 terminate it unless some neighbour is undecided.
            # While the cached neighbourhood is intact, the wait count is
            # *exact*: the neighbour set cannot have changed (any movement
            # nearby drops the cache entry) and every adjacent decision
            # decremented it — so a positive count answers without a scan.
            pid = particle.particle_id
            count = self._waiting.get(pid)
            if (count is not None and count > 0
                    and system.neighborhood_intact(particle)):
                return True
            undecided = 0
            for q in system.neighbors_of(particle):
                if q.memory[STATUS_KEY] == STATUS_UNDECIDED:
                    undecided += 1
            self._waiting[pid] = undecided
            return undecided > 0
        # Undecided: quiescent unless its flags are actionable (no eligible
        # ports left -> leader, or SCE -> erode).  The predicate is mirrored
        # in ``_actionable`` at every flag-write site, so this is one probe.
        return particle.particle_id not in self._actionable

    def wakes_on_movement(self, particle: Particle,
                          system: ParticleSystem) -> bool:
        """Movement-wake declaration for the event-driven engine.

        A parked *undecided* particle is quiescent because its eligibility
        flags are non-SCE, and those flags are written exclusively by an
        eroding neighbour's ring walk in :meth:`activate` — which names it
        in the precise wake list — so an occupancy change alone can never
        end its quiescence.  A parked *decided* particle waits on its neighbours'
        statuses, and movement can change who its neighbours are, so it
        keeps the conservative wake."""
        status: str = particle.memory[STATUS_KEY]
        return status != STATUS_UNDECIDED

    def initially_active_ids(self, system: ParticleSystem) -> Set[int]:
        """At setup every particle is contracted and undecided, so the
        particles whose first activation acts are exactly the actionable
        ones (flags empty or SCE) — the mirror setup just built."""
        return self._actionable

    # -- activation ---------------------------------------------------------------

    def activate(self, particle: Particle, system: ParticleSystem) -> object:
        # Returns the visibility hint of the base-class contract: ``False``
        # when the activation wrote nothing a neighbour observes (neighbours
        # only read each other's ``status``) beyond movements the system's
        # dirty-neighborhood events already report, and a precise wake list
        # when the only non-movement writes went to known neighbours.

        # Line 9: an expanded particle contracts into its head.
        if particle.head != particle.tail:
            system.contract_to_head(particle)
            # The contraction event wakes the neighbourhood; the particle
            # itself parks unless its flags are already actionable again.
            if particle.particle_id in self._actionable:
                return False
            return QUIESCENT

        memory = particle.memory
        status = memory[STATUS_KEY]

        # Lines 10-11: a decided particle surrounded by decided particles
        # terminates (vacuously true when it has no neighbours).  The scan
        # counts rather than short-circuits so it doubles as the exact
        # refresh of the wait count (see is_quiescent).
        if status != STATUS_UNDECIDED:
            undecided = 0
            for q in system.neighbors_of(particle):
                if q.memory[STATUS_KEY] == STATUS_UNDECIDED:
                    undecided += 1
            if not undecided:
                memory[TERMINATED_KEY] = True
                self._terminated_count += 1
                # Neither the flag nor the transition is neighbour-visible;
                # the sentinel also retires the particle (reports_termination).
                return TERMINATED
            self._waiting[particle.particle_id] = undecided
            return QUIESCENT  # waiting on an undecided neighbour

        # Lines 12-28: the particle is contracted, undecided, at point v.
        # The actionable mirror answers lines 14-16 in one set probe: it
        # holds exactly the undecided particles whose flags are empty
        # (-> leader) or SCE (-> erode), maintained at every write site.
        if particle.particle_id not in self._actionable:
            return QUIESCENT  # no-op activation (line 16 fails)

        point = particle.head
        eligible = memory[ELIGIBLE_KEY]

        # Lines 14-15: no eligible neighbour left -> become the leader.
        if True not in eligible:
            memory[STATUS_KEY] = STATUS_LEADER
            self.leader_point = point
            self._actionable.discard(particle.particle_id)
            # The status change is only *acted on* by decided neighbours
            # (an undecided particle's next step depends on its own
            # eligibility flags alone), so only those whose wait count
            # runs out need waking; parked particles are always
            # contracted, so head-adjacency suffices.
            adjacent = system.head_adjacent_particles(point)
            decided = [q for q, _ in adjacent
                       if q.memory[STATUS_KEY] != STATUS_UNDECIDED]
            return self._decided_transition_wake(
                particle.particle_id, len(adjacent) - len(decided), decided,
                [])

        # Lines 17-26 share one occupancy-ring walk (the erosion hot
        # path): remove v from S_e, fix the head-adjacent neighbours'
        # eligibility flags (line 18-19), update the actionable mirror and
        # the decided wait counts at the write site, and record which
        # directions are empty for the expansion step.  ``occupancy_maps``
        # is the system's sanctioned fast path for exactly this walk.
        self.eligible_points.discard(point)
        self.erosions += 1
        occupancy_get, particles = system.occupancy_maps()
        ring = packed_neighbors(pack_point(point))
        actionable = self._actionable
        written: List[Particle] = []
        decided: List[Particle] = []
        occupied_mask = 0
        for direction in range(NUM_DIRECTIONS):
            slot = ring[direction]
            pid = occupancy_get(slot)
            if pid is None:
                continue
            occupied_mask |= 1 << direction
            q = particles[pid]
            # Only head ports face v: skip a slot held by a tail.
            if q.head != q.tail and pack_point(q.head) != slot:
                continue
            qmemory = q.memory
            # The head port facing v is the opposite of ``direction``, in
            # q's own port numbering (inlined q.port_between).
            qflags = qmemory[ELIGIBLE_KEY]
            qflags[(direction + 3 - q.orientation) % NUM_DIRECTIONS] = False
            if qmemory[STATUS_KEY] == STATUS_UNDECIDED:
                # Write-site quiescence evaluation: wake the neighbour only
                # when the new flags make it act — elect itself (no
                # eligible ports left) or pass the SCE test; left non-SCE
                # it is exactly as quiescent as before.
                if True not in qflags or is_sce_flag_arc(qflags):
                    actionable.add(pid)
                    written.append(q)
                else:
                    # The write may have broken a previously SCE arc.
                    actionable.discard(pid)
            else:
                decided.append(q)

        empty_eligible: List[int] = []
        if self.expands:
            # eligible[] is indexed by *port*; translate to global
            # directions so the geometric step below is direction based.
            orientation = particle.orientation
            ports = _INVERSE[orientation]
            empty_eligible = [d for d in range(NUM_DIRECTIONS)
                              if eligible[ports[d]]
                              and not occupied_mask >> d & 1]
            if len(empty_eligible) > 1:
                raise LeaderElectionError(
                    "Claim 10 violated: SCE point has more than one empty "
                    f"eligible neighbour at {point}"
                )
        if empty_eligible:
            direction = empty_eligible[0]
            target = neighbor(point, direction)
            # Line 23: the port of the new head that points back to v —
            # the opposite of ``direction``, in the particle's numbering.
            port_back = (direction + 3 - orientation) % NUM_DIRECTIONS
            new_eligible = [True] * NUM_DIRECTIONS
            new_eligible[port_back] = False
            memory[ELIGIBLE_KEY] = new_eligible
            # Five eligible ports is never SCE: the particle leaves the
            # actionable set until a neighbour's erosion writes it back in.
            actionable.discard(particle.particle_id)
            system.expand(particle, target)
            # The eligibility writes above touch exactly the particles
            # whose heads are adjacent to v, which the expansion event
            # (dirty point: the target only) does not cover — wake
            # precisely those; nothing else observed a non-movement change.
            return written
        # Line 28: nowhere to go -> the particle becomes a follower.
        memory[STATUS_KEY] = STATUS_FOLLOWER
        actionable.discard(particle.particle_id)
        # Status change plus the flag writes: the decided neighbours whose
        # wait count runs out re-examine the status (parked ones are
        # contracted, so head-adjacency covers them), and ``written``
        # already holds the undecided neighbours that became actionable.
        return self._decided_transition_wake(
            particle.particle_id, len(written), decided, written)

    # -- helpers ----------------------------------------------------------------

    def _decided_transition_wake(self, pid: int, undecided: int,
                                 decided: List[Particle],
                                 wake: List[Particle]) -> List[Particle]:
        """Bookkeeping for an undecided -> decided transition.

        Sets the decider's own wait count to ``undecided`` (a lower bound
        on its undecided neighbours) and decrements the wait counts of its
        ``decided`` neighbours; appends to ``wake`` the decided neighbours
        whose count ran out — the only ones whose termination check can
        now succeed, which is exactly the wake list the event engine
        needs — and returns it."""
        waiting = self._waiting
        for q in decided:
            qid = q.particle_id
            count = waiting.get(qid)
            if count is not None:
                waiting[qid] = count = count - 1
                if count > 0:
                    continue  # still provably waiting on someone else
            wake.append(q)
        waiting[pid] = undecided
        return wake

    # -- checkpoint state protocol ----------------------------------------------

    def snapshot_state(self, system: ParticleSystem) -> Dict[str, Any]:
        """Algorithm-private state (the parts outside particle memories):
        the ``S_e`` mirror, erosion counters and the actionable/wait-count
        mirrors of the quiescence predicate."""
        return {
            "eligible_points": [list(point)
                                for point in sorted(self.eligible_points)],
            "leader_point": list(self.leader_point)
            if self.leader_point is not None else None,
            "erosions": self.erosions,
            "terminated_count": self._terminated_count,
            "population": self._population,
            "actionable": sorted(self._actionable),
            "waiting": [[pid, count]
                        for pid, count in sorted(self._waiting.items())],
        }

    def restore_state(self, state: Dict[str, Any],
                      system: ParticleSystem) -> None:
        self.eligible_points = {tuple(point)
                                for point in state["eligible_points"]}
        leader_point = state["leader_point"]
        self.leader_point = tuple(leader_point) \
            if leader_point is not None else None
        self.erosions = int(state["erosions"])
        self._terminated_count = int(state["terminated_count"])
        self._population = int(state["population"])
        self._actionable = {int(pid) for pid in state["actionable"]}
        # The wait counts were exact relative to the neighbor cache, which
        # restore cleared — ``is_quiescent``'s intact-check fails until the
        # first rescan refreshes them, so stale-but-positive counts cannot
        # mis-park anyone.
        self._waiting = {int(pid): int(count)
                         for pid, count in state["waiting"]}

    # -- instrumentation --------------------------------------------------------

    def eligible_set_size(self) -> int:
        """Current size of the instrumented eligible set ``S_e``."""
        return len(self.eligible_points)


class DLEAlgorithm(SCEElection):
    """The paper's Algorithm DLE: the SCE election over the area of the
    initial shape, with eroding particles moving inwards."""

    name = "dle"

    def initial_eligible(self, shape: Shape) -> AbstractSet[Point]:
        # An adjacent empty point is on the outer face iff it is neither
        # occupied nor a hole point, i.e. not in the area — a set lookup,
        # much cheaper than six point_in_outer_face calls per particle.
        return shape.area_points
