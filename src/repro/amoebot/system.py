"""The particle system: occupancy bookkeeping and movement operations.

This is the mutable world state shared by all particles.  It enforces the
movement rules of the amoebot model (Section 2.2):

* a contracted particle may *expand* into an empty adjacent point;
* an expanded particle may *contract* into its head or into its tail;
* a contracted particle and an adjacent expanded particle may perform a
  *handover* in which the contracted one expands into a point vacated by the
  expanded one.

The system does **not** force connectivity: the paper explicitly allows the
particle system to disconnect temporarily (that is the point of Algorithm
DLE).  Callers that want the classical connectivity requirement can assert
:meth:`ParticleSystem.is_connected` themselves.

Packed-coordinate core
----------------------

Internally the occupancy map is keyed by *packed* coordinates
(:mod:`repro.grid.packed`): each grid point is one int, neighbours are
reached by branch-free integer additions, and the six neighbours of a point
come out of an interned ring cache as a single shared tuple.  Every public
API still speaks tuple ``Point``\\ s — the packing is invisible at the
module edge; it only makes the per-activation occupancy probes (the hottest
reads of the whole simulator) hash ints instead of tuples and allocate
nothing.

Change notifications
--------------------

Every operation that alters occupancy (``add_particle``, ``expand``,
``contract_to_head``, ``contract_to_tail``, ``handover``, ``teleport``,
``bulk_relocate``) publishes a *dirty-neighborhood event*: the set of grid
points whose occupancy changed (gained, lost, or switched occupant),
together with the ids of every particle whose visible neighbourhood those
points touch — the occupants of the dirty points and of the points adjacent
to them.  Two consumers are built on the events:

* the **cached neighbor index** behind :meth:`ParticleSystem.neighbors_of`
  — neighbour lists are computed once and reused until an event touches
  them, which turns the hottest read of every activation into a handful of
  dictionary lookups, and
* the :class:`~repro.amoebot.scheduler.EventDrivenScheduler`, which parks
  quiescent particles and uses the events to re-wake only the particles
  adjacent to a change (see :meth:`add_change_listener`).

The same operations bump an occupancy version that keys the cached
:meth:`ParticleSystem.shape` snapshot.  A stale snapshot is rebuilt from
scratch: a live system is asked about its shape only at algorithm set-up,
once at the end of a run and by shape faults, so patching snapshots
between polls would not pay for itself.

Random streams
--------------

:meth:`ParticleSystem.from_shape` draws each particle's orientation from
the stdlib generator, ``random.Random(seed).randrange(6)`` in id order.
Building a system never imports numpy: the import alone costs more than
the draws of any shape a sweep cell builds.  numpy is an optional
accelerator of the ``random`` activation order only, and only for
populations of at least
:data:`~repro.amoebot.scheduler.NUMPY_MIN_POPULATION` particles (see
:class:`~repro.amoebot.scheduler._UniformKeyStream`).  Both backends draw
the same numbers, so records do not depend on the population or on
whether numpy is installed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..grid.coords import Point, direction_between
from ..grid.packed import (
    OFFSET as _OFFSET,
    SHIFT as _SHIFT,
    pack_point,
    packed_neighbors,
    unpack,
)

_MASK = (1 << _SHIFT) - 1
from ..grid.shape import Shape
from ..telemetry import counter as _metric
from .particle import Particle

__all__ = ["ParticleSystem", "IllegalMoveError", "ChangeListener"]

#: Signature of a dirty-neighborhood event subscriber: called with the grid
#: points whose occupancy changed and the ids of every particle occupying
#: one of those points or a point adjacent to one.  Both arguments are
#: read-only views (a tuple and a set) — listeners must not mutate them.
ChangeListener = Callable[[Sequence[Point], Set[int]], None]


class IllegalMoveError(RuntimeError):
    """Raised when an algorithm requests a movement the model forbids."""


def _draw_orientations(seed: int, count: int) -> List[int]:
    """The orientation stream of :meth:`ParticleSystem.from_shape`:
    ``count`` draws of ``random.Random(seed).randrange(6)``, straight from
    the stdlib generator.  At a few hundred nanoseconds a draw this is
    cheaper than importing numpy for all but the largest shapes, and it
    keeps every system build free of the numpy import."""
    randrange = random.Random(seed).randrange
    return [randrange(6) for _ in range(count)]


class ParticleSystem:
    """A collection of particles occupying points of the triangular grid."""

    def __init__(self) -> None:
        self._particles: Dict[int, Particle] = {}
        #: Occupancy keyed by packed coordinates (see the module docstring).
        self._occupancy: Dict[int, int] = {}
        #: Tuple-point mirror of the occupancy keys, maintained per event —
        #: the source of the public ``occupied_points()`` view and of the
        #: rebuilt ``shape()`` snapshot.
        self._points: Set[Point] = set()
        self._next_id = 0
        #: Total number of expansion / contraction / handover operations
        #: performed so far (movement complexity, used by some experiments).
        self.move_count = 0
        #: Cached neighbor index: particle id -> tuple of neighbouring
        #: Particle objects, invalidated by dirty-neighborhood events.
        self._neighbor_cache: Dict[int, Tuple[Particle, ...]] = {}
        self._listeners: List[ChangeListener] = []
        #: Monotone occupancy version: bumped by every occupancy-changing
        #: operation; keys the cached :meth:`shape` snapshot and the cached
        #: :meth:`occupied_points` view.
        self._version = 0
        self._shape_cache: Optional[Shape] = None
        self._shape_version = -1
        self._occupied_cache: Optional[FrozenSet[Point]] = None
        self._occupied_version = -1
        self._ids_cache: Optional[List[int]] = None
        #: Fault-layer visibility overlay: particle id -> frozen stale
        #: neighbourhood tuple served by :meth:`neighbors_of` instead of
        #: the live index.  None whenever no delay faults are active, so
        #: the fault-free hot path pays one attribute check only.
        self._stale_views: Optional[Dict[int, Tuple[Particle, ...]]] = None

    # -- change notifications -------------------------------------------------

    def add_change_listener(self, listener: ChangeListener) -> ChangeListener:
        """Subscribe to dirty-neighborhood events (see the module docstring).

        The listener is called after every occupancy-changing operation with
        ``(dirty_points, affected_ids)``; it is returned unchanged so the
        caller can keep the reference for :meth:`remove_change_listener`.
        """
        self._listeners.append(listener)
        return listener

    def remove_change_listener(self, listener: ChangeListener) -> None:
        """Unsubscribe a listener previously added (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def affected_ids(self, points: Iterable[Point]) -> FrozenSet[int]:
        """Ids of every particle occupying one of ``points`` or a point
        adjacent to one — exactly the particles whose neighbour lists (and
        visible neighbourhoods) an occupancy change at ``points`` can touch."""
        return frozenset(
            self._affected_ids_packed([pack_point(p) for p in points]))

    def _affected_ids_packed(self, packed_points: Sequence[int]) -> Set[int]:
        occupancy = self._occupancy
        get = occupancy.get
        ids = set()
        add = ids.add
        for packed in packed_points:
            pid = get(packed)
            if pid is not None:
                add(pid)
            for adjacent in packed_neighbors(packed):
                pid = get(adjacent)
                if pid is not None:
                    add(pid)
        return ids

    def _notify_change(self, packed_points: Sequence[int]) -> None:
        """Mirror the occupancy at ``packed_points``, invalidate the
        neighbor index around them and publish the event to subscribers.
        Cheap when nothing is cached or subscribed.  Expansions,
        contractions and handovers dirty exactly one point, so that case
        is the tight one."""
        self._version += 1
        occupancy = self._occupancy
        mirror = self._points
        dirty: List[Point] = []
        for packed in packed_points:
            point = ((packed >> _SHIFT) - _OFFSET,
                     (packed & _MASK) - _OFFSET)
            dirty.append(point)
            if packed in occupancy:
                mirror.add(point)
            else:
                mirror.discard(point)
        cache = self._neighbor_cache
        if not cache and not self._listeners:
            return
        affected = self._affected_ids_packed(packed_points)
        if cache:
            pop = cache.pop
            for pid in affected:
                pop(pid, None)
        if self._listeners:
            dirty_view = tuple(dirty)
            for listener in self._listeners:
                listener(dirty_view, affected)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_shape(cls, shape: Shape | Iterable[Point],
                   orientation_seed: Optional[int] = None) -> "ParticleSystem":
        """Create a contracted particle on every point of ``shape``.

        If ``orientation_seed`` is None all particles share orientation 0
        (handy for debugging); otherwise each particle receives a pseudo
        random orientation offset, modelling the fact that particles agree on
        chirality but not on a global compass.
        """
        system = cls()
        points = shape.points if isinstance(shape, Shape) else frozenset(shape)
        ordered = sorted(points)
        if orientation_seed is not None:
            orientations = _draw_orientations(orientation_seed, len(ordered))
        else:
            orientations = [0] * len(ordered)
        # Bulk construction: nothing is cached and nobody is subscribed yet,
        # so the per-particle event machinery is skipped and the occupancy
        # structures are filled directly (one version bump for the batch).
        particles = system._particles
        occupancy = system._occupancy
        mirror = system._points
        next_id = 0
        new_particle = Particle.__new__
        for point, orientation in zip(ordered, orientations):
            # Direct slot construction: the arguments are valid by
            # construction, so Particle.__init__'s validation is skipped
            # (and the packing is inlined — this loop builds every system).
            particle = new_particle(Particle)
            particle.particle_id = next_id
            particle.head = point
            particle.tail = point
            particle.orientation = orientation
            particle.memory = {}
            particles[next_id] = particle
            q, r = point
            occupancy[((q + _OFFSET) << _SHIFT) | (r + _OFFSET)] = next_id
            mirror.add(point)
            next_id += 1
        system._next_id = next_id
        system._version += 1
        if isinstance(shape, Shape):
            # Seed the shape cache with the caller's instance: its memoised
            # faces / connectivity carry over to algorithm setup.
            system._shape_cache = shape
            system._shape_version = system._version
        return system

    def add_particle(self, point: Point, orientation: int = 0) -> Particle:
        """Add a contracted particle at an empty point."""
        packed = pack_point(point)
        if packed in self._occupancy:
            raise IllegalMoveError(f"point {point} is already occupied")
        particle = Particle(self._next_id, point, orientation=orientation)
        self._particles[particle.particle_id] = particle
        self._occupancy[packed] = particle.particle_id
        self._next_id += 1
        self._ids_cache = None
        self._notify_change((packed,))
        return particle

    def remove_particle(self, particle_id: int) -> Particle:
        """Remove a contracted particle from the system.

        Like :meth:`teleport` this is **not** an amoebot operation: it
        exists for the fault layer's dynamic shape perturbations (and for
        tests building configurations).  The vacated point publishes a
        dirty-neighborhood event exactly like a contraction, so caches,
        the event engine and the next ``shape()`` snapshot all see the
        departure.  Connectivity is *not* checked here — the fault layer
        validates a removal first
        (:func:`~repro.amoebot.faults.removal_keeps_connected`).
        """
        particle = self._particles[particle_id]
        if particle.is_expanded:
            raise IllegalMoveError("cannot remove an expanded particle")
        packed = pack_point(particle.head)
        del self._particles[particle_id]
        del self._occupancy[packed]
        self._ids_cache = None
        self._neighbor_cache.pop(particle_id, None)
        self._notify_change((packed,))
        return particle

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._particles)

    def __iter__(self) -> Iterator[Particle]:
        return iter(self.particles())

    def particles(self) -> List[Particle]:
        """All particles, in a deterministic (id) order."""
        particles = self._particles
        return [particles[i] for i in self.particle_ids()]

    def particle_ids(self) -> List[int]:
        """All particle ids, ascending.  Ids are allocated monotonically,
        so the sorted list is cached until a particle is added or removed
        (the schedulers ask for it every round)."""
        return list(self._ids_snapshot())

    def _ids_snapshot(self) -> List[int]:
        """The cached ascending id list itself (no defensive copy) — for
        per-round readers that promise not to mutate it.  ``add_particle``
        and ``remove_particle`` drop the cache explicitly; the length
        check only backstops direct ``_particles`` surgery in tests."""
        cached = self._ids_cache
        if cached is None or len(cached) != len(self._particles):
            cached = self._ids_cache = sorted(self._particles)
        return cached

    def get_particle(self, particle_id: int) -> Particle:
        return self._particles[particle_id]

    def particle_at(self, point: Point) -> Optional[Particle]:
        """The particle occupying ``point``, or None."""
        pid = self._occupancy.get(pack_point(point))
        if pid is None:
            return None
        return self._particles[pid]

    def is_occupied(self, point: Point) -> bool:
        return pack_point(point) in self._occupancy

    def occupied_points(self) -> frozenset:
        """All currently occupied points.

        Cached against the occupancy version: erosion, OBD and the
        state-dependent adversaries poll this every round, and repeated
        calls while nothing moves share one frozenset.
        """
        if self._occupied_version != self._version:
            self._occupied_cache = frozenset(self._points)
            self._occupied_version = self._version
        return self._occupied_cache

    def shape(self) -> Shape:
        """The current shape of the particle system.

        The Shape snapshot is cached and invalidated by the same occupancy
        version the dirty-neighborhood events bump, so repeated calls while
        nothing moves (algorithm setup, instrumentation, metrics) share one
        instance — and therefore share its memoised faces / connectivity.
        Once anything has moved, the next call builds a fresh snapshot
        from the occupied points.
        """
        shape = self._shape_cache
        if shape is None or self._shape_version != self._version:
            _metric("shape.rebuilds").inc()
            shape = self._shape_cache = Shape(self._points)
            self._shape_version = self._version
        return shape

    def is_connected(self) -> bool:
        """Whether the set of occupied points is connected.

        Served by the cached :meth:`shape` snapshot's memoised connectivity:
        while nothing moves, repeated calls cost two attribute reads; after
        movement the first call rebuilds the snapshot and runs one BFS.
        """
        return self.shape().is_connected()

    def all_contracted(self) -> bool:
        return all(p.is_contracted for p in self._particles.values())

    def neighbors_of(self, particle: Particle) -> Tuple[Particle, ...]:
        """The neighbouring particles of ``particle`` (particles occupying a
        point adjacent to one of its occupied points), in a deterministic
        order without duplicates.

        Served from the cached neighbor index: the tuple is computed once
        and reused until a dirty-neighborhood event touches this particle,
        which every occupancy-changing operation publishes automatically.
        The returned tuple is the cache entry itself — treat it as
        immutable.

        When the fault layer installed a stale-view overlay
        (:meth:`set_stale_views`) and it holds an entry for this particle,
        that frozen snapshot is returned instead of the live index — the
        delayed-visibility fault family.  Use :meth:`live_neighbors_of`
        for reads that must never be delayed (the fault layer itself and
        the event engine's wake computation).
        """
        views = self._stale_views
        if views is not None:
            view = views.get(particle.particle_id)
            if view is not None:
                return view
        cached = self._neighbor_cache.get(particle.particle_id)
        if cached is None:
            cached = self._compute_neighbors(particle)
        return cached

    def live_neighbors_of(self, particle: Particle) -> Tuple[Particle, ...]:
        """:meth:`neighbors_of` bypassing any stale-view overlay — always
        the current neighbourhood, identical to ``neighbors_of`` when no
        delay faults are active."""
        cached = self._neighbor_cache.get(particle.particle_id)
        if cached is None:
            cached = self._compute_neighbors(particle)
        return cached

    def set_stale_views(self, views: Optional[Dict[int, Tuple[Particle, ...]]]
                        ) -> None:
        """Install (or with None remove) the fault layer's stale-view
        overlay consulted by :meth:`neighbors_of`.  The mapping is kept by
        reference — the owning :class:`~repro.amoebot.faults.FaultInjector`
        mutates it in place at round boundaries."""
        self._stale_views = views if views else None

    def _compute_neighbors(self, particle: Particle) -> Tuple[Particle, ...]:
        pid = particle.particle_id
        seen = {pid}
        found: List[Particle] = []
        get = self._occupancy.get
        particles = self._particles
        head = particle.head
        for point in packed_neighbors(pack_point(head)):
            other_id = get(point)
            if other_id is not None and other_id not in seen:
                seen.add(other_id)
                found.append(particles[other_id])
        tail = particle.tail
        if tail != head:
            for point in packed_neighbors(pack_point(tail)):
                other_id = get(point)
                if other_id is not None and other_id not in seen:
                    seen.add(other_id)
                    found.append(particles[other_id])
        cached = tuple(found)
        self._neighbor_cache[pid] = cached
        return cached

    def neighborhood_intact(self, particle: Particle) -> bool:
        """True iff the cached neighbourhood of ``particle`` exists and no
        occupancy change has touched it since it was computed — algorithms
        can use this as a validity token for their own derived
        neighbourhood state (every dirty-neighborhood event drops the
        entry)."""
        return particle.particle_id in self._neighbor_cache

    def neighbor_ids(self, particle: Particle) -> Tuple[int, ...]:
        """Ids of the neighbouring particles, deterministic order, no
        duplicates (a derived view of :meth:`neighbors_of`)."""
        return tuple(q.particle_id for q in self.neighbors_of(particle))

    def neighbor_particle(self, origin: Point, direction: int) -> Optional[Particle]:
        """The particle occupying the neighbour of ``origin`` in ``direction``."""
        pid = self._occupancy.get(
            packed_neighbors(pack_point(origin))[direction])
        if pid is None:
            return None
        return self._particles[pid]

    def occupancy_maps(self) -> Tuple[Callable[[int], Optional[int]],
                                      Dict[int, Particle]]:
        """The packed occupancy getter and the particle table —
        ``(occupancy.get, particles)`` — for algorithm hot paths that walk
        neighbourhood rings themselves (see :mod:`repro.grid.packed`).
        Read-only by contract: all mutation goes through the movement
        operations so the caches and events stay coherent."""
        return self._occupancy.get, self._particles

    def head_adjacent_particles(self, point: Point
                                ) -> List[Tuple[Particle, int]]:
        """``(particle, direction)`` pairs for the particles whose *head*
        occupies a neighbour of ``point``; ``direction`` is the global
        direction from ``point`` to that head.

        This walks the occupancy ring directly instead of going through
        the cached neighbor index, so it stays cheap for points whose
        occupants just moved (the erosion hot path: every eligibility
        write targets head ports of points adjacent to the eroded one).
        Expanded particles whose only adjacency is their tail are omitted
        — their head ports do not face ``point``.
        """
        get = self._occupancy.get
        particles = self._particles
        found: List[Tuple[Particle, int]] = []
        direction = 0
        for packed in packed_neighbors(pack_point(point)):
            pid = get(packed)
            if pid is not None:
                q = particles[pid]
                # The occupant of this slot contributes iff its head is
                # here: contracted particles always qualify; an expanded
                # one only when the slot is not its tail.
                if q.head == q.tail or pack_point(q.head) == packed:
                    found.append((q, direction))
            direction += 1
        return found

    # -- movement operations ---------------------------------------------------

    def expand(self, particle: Particle, target: Point) -> None:
        """Expand a contracted particle into the empty adjacent point
        ``target``; the old point becomes the particle's tail."""
        if particle.is_expanded:
            raise IllegalMoveError("cannot expand an already expanded particle")
        origin = particle.head
        direction_between(origin, target)  # raises if not adjacent
        packed_target = pack_point(target)
        if packed_target in self._occupancy:
            raise IllegalMoveError(f"cannot expand into occupied point {target}")
        particle.tail = origin
        particle.head = target
        self._occupancy[packed_target] = particle.particle_id
        self.move_count += 1
        # Only the target's occupancy changed (the origin keeps the tail);
        # the expanding particle itself is adjacent to the target, so its
        # own neighbor-cache entry is invalidated with its neighbours'.
        self._notify_change((packed_target,))

    def expand_toward(self, particle: Particle, direction: int) -> Point:
        """Expand a contracted particle along a global direction and return
        the new head point."""
        target = unpack(packed_neighbors(pack_point(particle.head))[direction])
        self.expand(particle, target)
        return target

    def contract_to_head(self, particle: Particle) -> None:
        """Contract an expanded particle into its head (vacating the tail)."""
        if particle.is_contracted:
            raise IllegalMoveError("cannot contract a contracted particle")
        packed_tail = pack_point(particle.tail)
        del self._occupancy[packed_tail]
        particle.tail = particle.head
        self.move_count += 1
        self._notify_change((packed_tail,))

    def contract_to_tail(self, particle: Particle) -> None:
        """Contract an expanded particle into its tail (vacating the head)."""
        if particle.is_contracted:
            raise IllegalMoveError("cannot contract a contracted particle")
        packed_head = pack_point(particle.head)
        del self._occupancy[packed_head]
        particle.head = particle.tail
        self.move_count += 1
        self._notify_change((packed_head,))

    def handover(self, contracted: Particle, expanded: Particle,
                 into: Optional[Point] = None) -> None:
        """Handover between a contracted and an adjacent expanded particle.

        The contracted particle expands into a point currently occupied by
        the expanded particle (``into``; defaults to the expanded particle's
        tail) and the expanded particle simultaneously contracts into its
        other point.
        """
        if not contracted.is_contracted:
            raise IllegalMoveError("first handover argument must be contracted")
        if not expanded.is_expanded:
            raise IllegalMoveError("second handover argument must be expanded")
        if into is None:
            into = expanded.tail
        if not expanded.occupies(into):
            raise IllegalMoveError(f"{into} is not occupied by the expanded particle")
        direction_between(contracted.head, into)  # adjacency check
        # The expanded particle vacates ``into`` and keeps its other point.
        keep = expanded.head if into == expanded.tail else expanded.tail
        expanded.head = keep
        expanded.tail = keep
        # The contracted particle expands into the vacated point.
        origin = contracted.head
        contracted.tail = origin
        contracted.head = into
        packed_into = pack_point(into)
        self._occupancy[packed_into] = contracted.particle_id
        self.move_count += 1
        # ``into`` changed owner; ``keep`` and the contracted particle's
        # origin stay occupied by the same particles, and both movers are
        # adjacent to ``into``, so one dirty point covers every stale entry.
        self._notify_change((packed_into,))

    # -- bulk helpers used by structured simulations --------------------------

    def teleport(self, particle: Particle, target: Point) -> None:
        """Move a contracted particle to an arbitrary empty point.

        This is **not** an amoebot operation; it is only used by structured
        simulations (Algorithm Collect) whose round counts are charged
        analytically, and by tests setting up configurations.
        """
        if particle.is_expanded:
            raise IllegalMoveError("cannot teleport an expanded particle")
        if target == particle.head:
            return
        packed_target = pack_point(target)
        if packed_target in self._occupancy:
            raise IllegalMoveError(f"cannot teleport onto occupied point {target}")
        origin = particle.head
        packed_origin = pack_point(origin)
        del self._occupancy[packed_origin]
        particle.head = target
        particle.tail = target
        self._occupancy[packed_target] = particle.particle_id
        self._notify_change((packed_origin, packed_target))

    def bulk_relocate(self, targets: Dict[int, Point]) -> None:
        """Atomically move several contracted particles to new points.

        Like :meth:`teleport`, this is a bookkeeping operation for structured
        simulations, not an amoebot move.  The final occupancy is validated:
        no two particles may end on the same point and no relocated particle
        may land on a particle that did not move.
        """
        self.bulk_relocate_packed(
            {pid: pack_point(point) for pid, point in targets.items()})

    def bulk_relocate_packed(self, targets: Dict[int, int]) -> None:
        """:meth:`bulk_relocate` with packed-int targets.

        The native entry point: planners that already work in the packed
        domain (Algorithm Collect's stem/parking layout) validate and
        commit without ever materialising tuple points, except for the
        particle ``head``/``tail`` fields the public particle API exposes.
        """
        for pid in targets:
            particle = self._particles[pid]
            if particle.is_expanded:
                raise IllegalMoveError(
                    "bulk_relocate only supports contracted particles"
                )
        new_points = list(targets.values())
        if len(set(new_points)) != len(new_points):
            raise IllegalMoveError("bulk_relocate targets collide with each other")
        moving = set(targets)
        for packed in new_points:
            occupant = self._occupancy.get(packed)
            if occupant is not None and occupant not in moving:
                raise IllegalMoveError(
                    f"bulk_relocate target {unpack(packed)} is occupied by "
                    "a particle that is not being moved"
                )
        dirty: List[int] = []
        for pid in targets:
            particle = self._particles[pid]
            packed_head = pack_point(particle.head)
            dirty.append(packed_head)
            del self._occupancy[packed_head]
        for pid, packed in targets.items():
            particle = self._particles[pid]
            particle.head = particle.tail = unpack(packed)
            self._occupancy[packed] = pid
            dirty.append(packed)
        self._notify_change(dirty)

    def snapshot(self) -> Dict[int, Tuple[Point, Point]]:
        """A copy of the occupancy state: id -> (head, tail)."""
        return {
            pid: (p.head, p.tail) for pid, p in self._particles.items()
        }

    # -- checkpoint state protocol --------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """The full mutable world state as a JSON-ready document.

        Covers everything :meth:`restore_state` needs to continue a run
        bit-identically: every particle's phase (head/tail), orientation
        and memory, the id allocator and the movement counter.  Derived
        caches (neighbor index, shape snapshot, occupancy views) are
        deliberately omitted — they are rebuilt on demand after restore.
        Particle memories must hold JSON-representable values only (the
        same contract :mod:`repro.io` imposes; true for every built-in
        algorithm).
        """
        particles = []
        for pid in sorted(self._particles):
            particle = self._particles[pid]
            particles.append({
                "id": pid,
                "head": list(particle.head),
                "tail": list(particle.tail),
                "orientation": particle.orientation,
                "memory": particle.memory,
            })
        return {"particles": particles, "next_id": self._next_id,
                "move_count": self.move_count}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Replace this system's state with a :meth:`snapshot_state` doc.

        Occupancy (both points of an expanded particle) is re-derived from
        the particle list; every cache is invalidated and rebuilt lazily.
        Registered change listeners stay subscribed but are not notified —
        restore is a wholesale replacement, not a movement.
        """
        particles: Dict[int, Particle] = {}
        occupancy: Dict[int, int] = {}
        mirror: Set[Point] = set()
        new_particle = Particle.__new__
        for entry in state["particles"]:
            particle = new_particle(Particle)
            pid = int(entry["id"])
            particle.particle_id = pid
            particle.head = tuple(entry["head"])
            particle.tail = tuple(entry["tail"])
            particle.orientation = int(entry["orientation"])
            particle.memory = dict(entry["memory"])
            particles[pid] = particle
            occupancy[pack_point(particle.head)] = pid
            mirror.add(particle.head)
            if particle.tail != particle.head:
                occupancy[pack_point(particle.tail)] = pid
                mirror.add(particle.tail)
        self._particles = particles
        self._occupancy = occupancy
        self._points = mirror
        self._next_id = int(state["next_id"])
        self.move_count = int(state["move_count"])
        self._neighbor_cache = {}
        self._version += 1
        self._shape_cache = None
        self._shape_version = -1
        self._occupied_cache = None
        self._occupied_version = -1
        self._ids_cache = None
        # Any stale-view overlay belonged to the replaced state; the fault
        # injector re-installs its own views after its restore.
        self._stale_views = None

    def __repr__(self) -> str:
        expanded = sum(1 for p in self._particles.values() if p.is_expanded)
        return (
            f"ParticleSystem(n={len(self._particles)}, expanded={expanded}, "
            f"moves={self.move_count})"
        )
