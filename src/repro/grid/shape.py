"""Shapes on the triangular grid (Section 2.1 of the paper).

A *shape* is a finite set of grid points.  This module provides both

* cheap, purely local predicates on an arbitrary occupied-point set
  (local boundaries, boundary counts, redundant / erodable / strictly convex
  and erodable points), used directly by the election algorithms, and
* the :class:`Shape` wrapper which additionally computes global structure:
  outer boundary, holes, the area (shape plus hole points), and the oriented
  virtual rings of v-nodes used by the outer-boundary-detection primitive.

All definitions follow Section 2.1 of Dufoulon, Kutten and Moses (2021).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..telemetry import counter as _metric
from .coords import (
    NUM_DIRECTIONS,
    Point,
    bounding_box,
    direction_between,
    grid_distance,
    neighbor,
    neighbors,
    neighbors_interned,
    rotate_cw,
)

__all__ = [
    "Shape",
    "VNode",
    "VirtualRing",
    "local_boundaries",
    "boundary_count",
    "neighbors_in",
    "occupied_direction_mask",
    "is_redundant",
    "has_single_local_boundary",
    "is_erodable_assuming_simply_connected",
    "is_sce_assuming_simply_connected",
    "connected_components",
    "is_connected",
]


# ---------------------------------------------------------------------------
# Local, set-based predicates
# ---------------------------------------------------------------------------

def neighbors_in(point: Point, occupied: AbstractSet[Point]) -> List[Point]:
    """Return the neighbours of ``point`` that belong to ``occupied``,
    in clockwise order."""
    return [u for u in neighbors(point) if u in occupied]


def occupied_direction_mask(point: Point, occupied: AbstractSet[Point]) -> List[bool]:
    """For each of the six clockwise directions, whether the neighbour in that
    direction belongs to ``occupied``."""
    return [u in occupied for u in neighbors_interned(point)]


def local_boundaries(point: Point, occupied: AbstractSet[Point]) -> List[List[int]]:
    """Return the local boundaries of ``point`` w.r.t. ``occupied``.

    A local boundary is a maximal clockwise-cyclic interval of incident edges
    leading to points *not* in ``occupied``.  Each boundary is returned as the
    list of direction indices of its edges, in clockwise order.  A point all
    of whose neighbours are occupied (an interior point) has no local
    boundary; an isolated point has a single local boundary of size six.
    """
    mask = occupied_direction_mask(point, occupied)
    empty_dirs = [d for d in range(NUM_DIRECTIONS) if not mask[d]]
    if not empty_dirs:
        return []
    if len(empty_dirs) == NUM_DIRECTIONS:
        return [list(range(NUM_DIRECTIONS))]
    boundaries: List[List[int]] = []
    # Walk clockwise starting just after an occupied direction so that each
    # maximal run of empty directions is collected exactly once.
    start = next(d for d in range(NUM_DIRECTIONS) if mask[d])
    current: List[int] = []
    for offset in range(1, NUM_DIRECTIONS + 1):
        d = (start + offset) % NUM_DIRECTIONS
        if not mask[d]:
            current.append(d)
        elif current:
            boundaries.append(current)
            current = []
    if current:
        boundaries.append(current)
    return boundaries


def boundary_count(point: Point, occupied: AbstractSet[Point],
                   boundary: Optional[Sequence[int]] = None) -> int:
    """Boundary count ``c(v, B) = |B| - 2`` of ``point`` w.r.t. one of its
    local boundaries.

    If ``boundary`` is omitted the point must have exactly one local boundary
    (otherwise a ``ValueError`` is raised), matching the paper's shorthand
    "the boundary count of ``v`` w.r.t. ``S``".
    """
    if boundary is None:
        bounds = local_boundaries(point, occupied)
        if len(bounds) != 1:
            raise ValueError(
                f"{point} has {len(bounds)} local boundaries; "
                "an explicit boundary is required"
            )
        boundary = bounds[0]
    return len(boundary) - 2


def has_single_local_boundary(point: Point, occupied: AbstractSet[Point]) -> bool:
    """True iff the point has exactly one local boundary w.r.t. ``occupied``."""
    return len(local_boundaries(point, occupied)) == 1


def is_redundant(point: Point, occupied: AbstractSet[Point]) -> bool:
    """A point is *redundant* if removing it does not disconnect its 1-hop
    neighbourhood within ``occupied`` (Section 2.1).

    By Proposition 6 of the paper, for boundary points this is equivalent to
    having a single local boundary; interior points are trivially redundant.
    """
    bounds = local_boundaries(point, occupied)
    return len(bounds) <= 1


def is_erodable_assuming_simply_connected(point: Point,
                                          occupied: AbstractSet[Point]) -> bool:
    """Erodability test valid when ``occupied`` is simply connected.

    A point is erodable iff it has a single local boundary and that boundary
    is a local *outer* boundary (Proposition 6).  When the occupied set is
    simply connected its only global boundary is the outer one, so the face
    test is unnecessary and erodability becomes a purely local predicate.
    """
    return len(local_boundaries(point, occupied)) == 1


def is_sce_assuming_simply_connected(point: Point,
                                     occupied: AbstractSet[Point]) -> bool:
    """Strictly-convex-and-erodable test valid for simply connected sets.

    The point must be erodable and strictly convex w.r.t. its unique local
    boundary, i.e. the boundary count must be strictly positive.
    """
    bounds = local_boundaries(point, occupied)
    if len(bounds) != 1:
        return False
    return len(bounds[0]) - 2 > 0


# ---------------------------------------------------------------------------
# Connectivity helpers
# ---------------------------------------------------------------------------

def connected_components(points: AbstractSet[Point]) -> List[Set[Point]]:
    """Connected components of a point set under grid adjacency."""
    remaining: Set[Point] = set(points)
    components: List[Set[Point]] = []
    while remaining:
        seed = next(iter(remaining))
        component: Set[Point] = set()
        queue = deque([seed])
        remaining.discard(seed)
        while queue:
            current = queue.popleft()
            component.add(current)
            for nxt in neighbors_interned(current):
                if nxt in remaining:
                    remaining.discard(nxt)
                    queue.append(nxt)
        components.append(component)
    return components


def is_connected(points: AbstractSet[Point]) -> bool:
    """True iff the point set is non-empty and connected on the grid."""
    if not points:
        return False
    return len(connected_components(points)) == 1


# ---------------------------------------------------------------------------
# Incremental shape maintenance
# ---------------------------------------------------------------------------
#
# A Shape memoises three expensive global facts: connectivity (one BFS), the
# outer face and the holes (a bounding-box flood fill).  The helpers below
# *patch* that memoised state through single-point deltas instead of
# discarding it, which is what makes :meth:`Shape.without`,
# :meth:`Shape.with_point`, :meth:`Shape.moved` and the batched delta replay
# behind :meth:`repro.amoebot.system.ParticleSystem.shape` cheap:
#
# * connectivity follows purely local rules — adding a point with an
#   occupied neighbour cannot disconnect a connected shape, and removing a
#   point with at most one local boundary (Proposition 6) cannot change
#   connectivity at all; only the remaining cases degrade the memo to
#   "unknown" (recomputed lazily, at most once, if anyone asks);
# * the hole list stays *exact* under every delta: removals only ever merge
#   faces (locally detectable), and additions can only shrink or split the
#   face they land in — a split is detected by counting the point's empty
#   arcs and resolved with a re-flood bounded by the faces it creates;
# * the memoised outer-face point set is maintained as a consistent subset
#   of the true outer face (``point_in_outer_face`` already falls back to
#   "empty and in no hole" for points it does not list, so the subset only
#   needs to stay disjoint from the holes and the shape).

class _ShapeState:
    """Mutable working copy of a Shape's points and memoised global state.

    Built from an existing Shape, mutated through :func:`_state_add` /
    :func:`_state_remove`, and frozen back into a new Shape with
    :meth:`Shape._from_state` (which takes ownership of the sets).
    ``faces_valid`` mirrors whether the source shape had computed its faces:
    when it had not, there is nothing to patch and the face fields stay
    empty (the derived shape recomputes lazily, exactly like today).
    """

    __slots__ = ("points", "connected", "faces_valid", "outer_empty", "holes")

    def __init__(self) -> None:
        self.points: Set[Point] = set()
        self.connected: Optional[bool] = None
        self.faces_valid = False
        self.outer_empty: Set[Point] = set()
        self.holes: List[Set[Point]] = []


def _empty_arc_count(occ_mask: Sequence[bool]) -> int:
    """Number of maximal cyclic runs of empty directions in a 6-entry
    occupancy mask (= the number of local boundaries of the point)."""
    arcs = 0
    for d in range(NUM_DIRECTIONS):
        if not occ_mask[d] and occ_mask[d - 1]:
            arcs += 1
    if arcs == 0:
        # No transition: the ring is all-occupied (0 arcs) or all-empty (1).
        return 0 if occ_mask[0] else 1
    return arcs


def _empty_arc_groups(ring: Sequence[Point],
                      occ_mask: Sequence[bool]) -> List[List[Point]]:
    """The empty neighbours of a point grouped into maximal cyclic arcs.

    Requires at least one occupied direction (callers only split when the
    point has two or more arcs, which implies one).
    """
    start = next(d for d in range(NUM_DIRECTIONS) if occ_mask[d])
    groups: List[List[Point]] = []
    current: List[Point] = []
    for offset in range(1, NUM_DIRECTIONS + 1):
        d = (start + offset) % NUM_DIRECTIONS
        if not occ_mask[d]:
            current.append(ring[d])
        elif current:
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def _split_outer(state: _ShapeState, groups: List[List[Point]]) -> None:
    """Resolve a potential outer-face split after adding a point.

    One interleaved BFS per empty arc explores the empty grid around the
    added point.  Arcs whose regions touch are merged; an arc whose region
    exhausts is enclosed — it has become a new hole.  The search stops as
    soon as a single live region remains (the outer remnant), so the cost
    is bounded by the faces actually created, not by the outer face.
    """
    _metric("shape.refloods").inc()
    points = state.points
    parent = list(range(len(groups)))

    def find(g: int) -> int:
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    regions: List[Set[Point]] = [set(group) for group in groups]
    frontiers: List[deque] = [deque(group) for group in groups]
    label: Dict[Point, int] = {}
    for gid, group in enumerate(groups):
        for seed in group:
            label[seed] = gid
    alive: Set[int] = set(range(len(groups)))
    closed: List[int] = []
    while len(alive) > 1:
        for gid in sorted(alive):
            root = find(gid)
            if root != gid or root not in alive:
                continue  # merged away earlier in this pass
            frontier = frontiers[root]
            if not frontier:
                # Fully explored without reaching another arc: enclosed.
                alive.discard(root)
                closed.append(root)
                continue
            current = frontier.popleft()
            for nb in neighbors_interned(current):
                if nb in points:
                    continue
                other = label.get(nb)
                if other is None:
                    label[nb] = root
                    regions[root].add(nb)
                    frontier.append(nb)
                    continue
                other = find(other)
                if other == root:
                    continue
                # Two arcs meet: they are one face — merge small into large.
                if len(regions[other]) > len(regions[root]):
                    root, other = other, root
                parent[other] = root
                regions[root] |= regions[other]
                frontiers[root].extend(frontiers[other])
                alive.discard(other)
                # The local alias must follow the surviving root, or the
                # remaining neighbours of ``current`` would be appended to
                # the absorbed (dead) deque and never explored.
                frontier = frontiers[root]
            if len(alive) <= 1:
                break
    for root in closed:
        hole = regions[root]
        state.outer_empty -= hole
        state.holes.append(hole)


def _face_add(state: _ShapeState, point: Point, ring: Sequence[Point],
              occ_mask: Sequence[bool]) -> None:
    """Patch the face state for an added point (already in ``state.points``).

    An addition shrinks the face the point was in, and can split it when
    the point has two or more empty arcs; it can never merge faces.  The
    face of the added point is the face of *all* its empty neighbours
    (adjacent empty points always share a face).
    """
    holes = state.holes
    for index, hole in enumerate(holes):
        if point in hole:
            hole.discard(point)
            if not hole:
                del holes[index]
            elif _empty_arc_count(occ_mask) >= 2:
                _metric("shape.refloods").inc()
                parts = connected_components(hole)
                if len(parts) > 1:
                    del holes[index]
                    holes.extend(set(part) for part in parts)
            return
    # The point was on the outer face.
    state.outer_empty.discard(point)
    if _empty_arc_count(occ_mask) >= 2:
        _split_outer(state, _empty_arc_groups(ring, occ_mask))


def _face_remove(state: _ShapeState, point: Point,
                 ring: Sequence[Point]) -> None:
    """Patch the face state for a removed point (already taken out of
    ``state.points``).

    A removal turns an occupied point into empty space, which joins — and
    thereby may merge — every face adjacent to it; it can never split one.
    """
    points = state.points
    if not points:
        state.outer_empty.clear()
        state.holes.clear()
        return
    empties = [u for u in ring if u not in points]
    if not empties:
        # Entirely enclosed: the vacated point is a brand-new hole.
        state.holes.append({point})
        return
    holes = state.holes
    involved: List[int] = []
    touches_outer = False
    for u in empties:
        for index, hole in enumerate(holes):
            if u in hole:
                if index not in involved:
                    involved.append(index)
                break
        else:
            touches_outer = True
    if touches_outer:
        # Every involved hole drains into the outer face.
        state.outer_empty.add(point)
        for index in sorted(involved, reverse=True):
            state.outer_empty |= holes[index]
            del holes[index]
    elif len(involved) == 1:
        holes[involved[0]].add(point)
    else:
        merged: Set[Point] = {point}
        for index in sorted(involved, reverse=True):
            merged |= holes[index]
            del holes[index]
        holes.append(merged)


def _state_add(state: _ShapeState, point: Point) -> None:
    """Apply a single-point addition to a working state (no-op if present)."""
    points = state.points
    if point in points:
        return
    ring = neighbors_interned(point)
    occ_mask = [u in points for u in ring]
    points.add(point)
    if True not in occ_mask:
        # An isolated addition: alone it is connected, otherwise it is a
        # fresh component of its own.
        state.connected = len(points) == 1
    elif state.connected is False:
        state.connected = None  # the new point may bridge two components
    if state.faces_valid:
        _face_add(state, point, ring, occ_mask)


def _state_remove(state: _ShapeState, point: Point) -> None:
    """Apply a single-point removal to a working state (no-op if absent)."""
    points = state.points
    if point not in points:
        return
    ring = neighbors_interned(point)
    occ_mask = [u in points for u in ring]
    points.discard(point)
    if not points:
        state.connected = False
    elif True not in occ_mask:
        # The removed point was a whole component by itself; what is left
        # may or may not be connected.
        state.connected = None
    elif state.connected is not False and _empty_arc_count(occ_mask) >= 2:
        # Removing an articulation candidate: connectivity becomes unknown.
        # (With at most one local boundary the removal is *redundant* —
        # Proposition 6 — and the memoised answer survives; a removal of a
        # non-isolated point can never reconnect a disconnected shape, so
        # False also survives.)
        state.connected = None
    if state.faces_valid:
        _face_remove(state, point, ring)


# ---------------------------------------------------------------------------
# v-nodes and virtual rings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VNode:
    """A virtual node: a boundary point together with one of its local
    boundaries (Section 2.1, "Virtual Nodes and (Oriented) Rings").

    The local boundary is stored as a tuple of clockwise direction indices.
    """

    point: Point
    boundary: Tuple[int, ...]

    @property
    def count(self) -> int:
        """Boundary count ``c(v(B)) = |B| - 2`` of this v-node."""
        return len(self.boundary) - 2

    @property
    def first_direction(self) -> int:
        return self.boundary[0]

    @property
    def last_direction(self) -> int:
        return self.boundary[-1]


@dataclass(frozen=True)
class VirtualRing:
    """An oriented virtual ring of v-nodes covering one global boundary.

    ``is_outer`` records whether the ring corresponds to the global outer
    boundary of the shape.  ``vnodes`` lists the v-nodes in clockwise
    successor order (the first of the two rings defined in the paper).
    """

    vnodes: Tuple[VNode, ...]
    is_outer: bool

    def __len__(self) -> int:
        return len(self.vnodes)

    @property
    def total_count(self) -> int:
        """Sum of the boundary counts of the ring's v-nodes.

        By Observation 4, this equals 6 for the outer boundary and -6 for an
        inner boundary.
        """
        return sum(v.count for v in self.vnodes)

    @property
    def points(self) -> FrozenSet[Point]:
        """The set of distinct shape points visited by the ring."""
        return frozenset(v.point for v in self.vnodes)


# ---------------------------------------------------------------------------
# Shape
# ---------------------------------------------------------------------------

class Shape:
    """A finite set of triangular-grid points with derived global structure.

    The constructor accepts any iterable of ``(q, r)`` points.  A shape may be
    disconnected or empty; most of the geometric accessors require a
    non-empty shape and raise ``ValueError`` otherwise.
    """

    def __init__(self, points: Iterable[Point]):
        self._points: FrozenSet[Point] = frozenset((int(q), int(r)) for q, r in points)
        self._faces_computed = False
        self._outer_empty: Set[Point] = set()
        self._holes: List[FrozenSet[Point]] = []
        self._rings: Optional[List[VirtualRing]] = None
        self._connected: Optional[bool] = None
        self._area_points: Optional[FrozenSet[Point]] = None

    # -- basic protocol ----------------------------------------------------

    @property
    def points(self) -> FrozenSet[Point]:
        """The occupied points of the shape."""
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(sorted(self._points))

    def __contains__(self, point: Point) -> bool:
        return point in self._points

    def __eq__(self, other) -> bool:
        if isinstance(other, Shape):
            return self._points == other._points
        if isinstance(other, (set, frozenset)):
            return self._points == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"Shape(n={len(self._points)})"

    # -- derived shapes ----------------------------------------------------
    #
    # The three delta constructors below patch whatever global state this
    # shape has already memoised (connectivity, outer face, holes) instead
    # of discarding it — see the "Incremental shape maintenance" section.
    # State this shape never computed is simply left uncomputed on the
    # derived shape, so the constructors are never *more* expensive than a
    # plain rebuild.

    def _working_state(self) -> _ShapeState:
        """A mutable copy of this shape's points and memoised state."""
        state = _ShapeState()
        state.points = set(self._points)
        state.connected = self._connected
        state.faces_valid = self._faces_computed
        if state.faces_valid:
            state.outer_empty = set(self._outer_empty)
            state.holes = [set(hole) for hole in self._holes]
        return state

    @classmethod
    def _from_state(cls, state: _ShapeState) -> "Shape":
        """Freeze a working state into a Shape.  Takes ownership of the
        state's sets — the caller must not touch the state afterwards."""
        shape = cls.__new__(cls)
        shape._points = frozenset(state.points)
        shape._faces_computed = state.faces_valid
        if state.faces_valid:
            shape._outer_empty = state.outer_empty
            holes = [frozenset(hole) for hole in state.holes]
            holes.sort(key=min)
            shape._holes = holes
        else:
            shape._outer_empty = set()
            shape._holes = []
        shape._rings = None
        shape._connected = state.connected
        shape._area_points = None
        return shape

    def without(self, point: Point) -> "Shape":
        """Return a new shape with ``point`` removed, patching the memoised
        connectivity and face state instead of recomputing it."""
        point = (int(point[0]), int(point[1]))
        if point not in self._points:
            return self  # no-op delta; shapes are immutable
        state = self._working_state()
        _state_remove(state, point)
        return Shape._from_state(state)

    def with_point(self, point: Point) -> "Shape":
        """Return a new shape with ``point`` added, patching the memoised
        connectivity and face state instead of recomputing it."""
        point = (int(point[0]), int(point[1]))
        if point in self._points:
            return self  # no-op delta; shapes are immutable
        state = self._working_state()
        _state_add(state, point)
        return Shape._from_state(state)

    def moved(self, old: Point, new: Point) -> "Shape":
        """Return a new shape with ``old`` vacated and ``new`` occupied —
        the single-particle movement delta — patching the memoised state
        through both updates at once."""
        old = (int(old[0]), int(old[1]))
        new = (int(new[0]), int(new[1]))
        if old == new or old not in self._points or new in self._points:
            raise ValueError(
                f"moved() needs a distinct occupied source and empty target; "
                f"got {old} -> {new}"
            )
        state = self._working_state()
        _state_remove(state, old)
        _state_add(state, new)
        return Shape._from_state(state)

    def _apply_deltas(self, deltas: Sequence[Tuple[Point, bool]]) -> "Shape":
        """Replay an ordered ``(point, added)`` delta stream into a new
        shape, patching the memoised state through every step.  Used by
        :meth:`repro.amoebot.system.ParticleSystem.shape` to refresh its
        snapshot from the occupancy changes since the previous one."""
        state = self._working_state()
        for point, added in deltas:
            if added:
                _state_add(state, point)
            else:
                _state_remove(state, point)
        _metric("shape.delta_replays").inc()
        _metric("shape.deltas_applied").inc(len(deltas))
        return Shape._from_state(state)

    # -- connectivity -------------------------------------------------------

    def is_connected(self) -> bool:
        """True iff the shape is non-empty and connected.

        Memoised: the shape is immutable, so the BFS runs at most once."""
        if self._connected is None:
            self._connected = is_connected(self._points)
        return self._connected

    def connected_components(self) -> List[Set[Point]]:
        return connected_components(self._points)

    # -- faces: outer face and holes ----------------------------------------

    def _compute_faces(self) -> None:
        if self._faces_computed:
            return
        self._faces_computed = True
        _metric("shape.face_floods").inc()
        if not self._points:
            self._outer_empty = set()
            self._holes = []
            return
        min_q, min_r, max_q, max_r = bounding_box(self._points)
        # Pad the bounding box by one so the outer face is connected around
        # the shape within the scanned region.
        min_q -= 1
        min_r -= 1
        max_q += 1
        max_r += 1

        def in_box(p: Point) -> bool:
            return min_q <= p[0] <= max_q and min_r <= p[1] <= max_r

        start = (min_q, min_r)
        outer: Set[Point] = set()
        queue = deque([start])
        outer.add(start)
        while queue:
            current = queue.popleft()
            for nxt in neighbors_interned(current):
                # Cheapest test first: most neighbours were already visited,
                # so the set probes short-circuit before the bounds call.
                if nxt not in outer and nxt not in self._points and in_box(nxt):
                    outer.add(nxt)
                    queue.append(nxt)
        self._outer_empty = outer

        box_cells = (max_q - min_q + 1) * (max_r - min_r + 1)
        if len(outer) + len(self._points) >= box_cells:
            # The outer flood reached every empty cell of the padded box:
            # hole-free, no need to scan the box for leftovers.
            self._holes = []
            return
        remaining: Set[Point] = set()
        for q in range(min_q, max_q + 1):
            for r in range(min_r, max_r + 1):
                p = (q, r)
                if p not in self._points and p not in outer:
                    remaining.add(p)
        self._holes = [frozenset(c) for c in connected_components(remaining)]
        self._holes.sort(key=lambda hole: sorted(hole)[0])

    @property
    def holes(self) -> List[FrozenSet[Point]]:
        """The holes of the shape: one frozenset of hole points per hole."""
        self._compute_faces()
        return list(self._holes)

    @property
    def hole_points(self) -> FrozenSet[Point]:
        """All points lying in some hole of the shape."""
        self._compute_faces()
        result: Set[Point] = set()
        for hole in self._holes:
            result |= hole
        return frozenset(result)

    def is_simply_connected(self) -> bool:
        """True iff the shape is connected and has no holes."""
        return self.is_connected() and not self.holes

    @property
    def area_points(self) -> FrozenSet[Point]:
        """The area of the shape: its points plus all of its hole points.

        Memoised: the shape is immutable, so the union is built at most
        once."""
        if self._area_points is None:
            self._area_points = self._points | self.hole_points
        return self._area_points

    def point_in_outer_face(self, point: Point) -> bool:
        """True iff ``point`` is an empty point lying on the outer face.

        Points far outside the padded bounding box are trivially in the outer
        face; occupied points are never in the outer face.
        """
        if point in self._points:
            return False
        self._compute_faces()
        if point in self._outer_empty:
            return True
        return all(point not in hole for hole in self._holes)

    def point_in_hole(self, point: Point) -> bool:
        """True iff ``point`` lies inside one of the shape's holes."""
        if point in self._points:
            return False
        self._compute_faces()
        return any(point in hole for hole in self._holes)

    # -- boundaries ----------------------------------------------------------

    @property
    def boundary_points(self) -> FrozenSet[Point]:
        """Points of the shape having at least one empty neighbour."""
        return frozenset(
            p for p in self._points
            if any(u not in self._points for u in neighbors_interned(p))
        )

    @property
    def interior_points(self) -> FrozenSet[Point]:
        """Points of the shape all of whose neighbours are occupied."""
        return self._points - self.boundary_points

    @property
    def outer_boundary(self) -> FrozenSet[Point]:
        """Points of the shape adjacent to the outer face.  Every empty
        point lies in a hole or in the outer face, so these are the points
        with a neighbour outside the area."""
        area = self.area_points
        return frozenset(
            p for p in self._points
            if not area.issuperset(neighbors_interned(p))
        )

    def inner_boundary(self, hole_index: int) -> FrozenSet[Point]:
        """Points of the shape adjacent to the given hole: the occupied
        neighbours of its points, so the cost is the hole's size."""
        hole = self.holes[hole_index]
        points = self._points
        return frozenset(
            u for p in hole for u in neighbors_interned(p) if u in points
        )

    @property
    def inner_boundaries(self) -> List[FrozenSet[Point]]:
        """One boundary point set per hole, in the order of :attr:`holes`."""
        return [self.inner_boundary(i) for i in range(len(self.holes))]

    @property
    def outer_boundary_length(self) -> int:
        """``L_out``: the number of points on the outer boundary."""
        return len(self.outer_boundary)

    @property
    def max_boundary_length(self) -> int:
        """``L_max``: the maximum number of points over all boundaries."""
        lengths = [self.outer_boundary_length]
        lengths.extend(len(b) for b in self.inner_boundaries)
        return max(lengths) if lengths else 0

    # -- local structure ------------------------------------------------------

    def local_boundaries(self, point: Point) -> List[List[int]]:
        """Local boundaries of an occupied point (see module-level function)."""
        if point not in self._points:
            raise ValueError(f"{point} is not in the shape")
        return local_boundaries(point, self._points)

    def boundary_count(self, point: Point,
                       boundary: Optional[Sequence[int]] = None) -> int:
        """Boundary count of an occupied point w.r.t. one of its boundaries."""
        if point not in self._points:
            raise ValueError(f"{point} is not in the shape")
        return boundary_count(point, self._points, boundary)

    def is_redundant(self, point: Point) -> bool:
        """True iff removing the point keeps its 1-hop neighbourhood connected."""
        if point not in self._points:
            raise ValueError(f"{point} is not in the shape")
        return is_redundant(point, self._points)

    def is_erodable(self, point: Point) -> bool:
        """True iff the point is redundant and on the outer boundary.

        Equivalently (Proposition 6): it has a single local boundary and that
        boundary is a local outer boundary.
        """
        if point not in self._points:
            raise ValueError(f"{point} is not in the shape")
        bounds = local_boundaries(point, self._points)
        if len(bounds) != 1:
            return False
        # The unique local boundary must border the outer face.
        boundary = bounds[0]
        return any(
            self.point_in_outer_face(neighbor(point, d)) for d in boundary
        )

    def is_sce(self, point: Point) -> bool:
        """True iff the point is strictly convex and erodable (SCE) w.r.t.
        the shape."""
        if not self.is_erodable(point):
            return False
        bounds = local_boundaries(point, self._points)
        return len(bounds[0]) - 2 > 0

    def sce_points(self) -> List[Point]:
        """All SCE points of the shape, sorted."""
        return sorted(p for p in self.boundary_points if self.is_sce(p))

    def erodable_points(self) -> List[Point]:
        """All erodable points of the shape, sorted."""
        return sorted(p for p in self.boundary_points if self.is_erodable(p))

    # -- v-nodes and virtual rings --------------------------------------------

    def vnodes_of(self, point: Point) -> List[VNode]:
        """The v-nodes associated with an occupied boundary point."""
        return [VNode(point, tuple(b)) for b in self.local_boundaries(point)]

    def all_vnodes(self) -> List[VNode]:
        """All v-nodes of the shape, sorted by point then first direction."""
        result: List[VNode] = []
        for point in sorted(self.boundary_points):
            result.extend(self.vnodes_of(point))
        return result

    def clockwise_successor(self, vnode: VNode) -> Tuple[VNode, Point]:
        """Return the clockwise successor v-node of ``vnode`` and their common
        (unoccupied) point, following Observation 3."""
        if len(self._points) < 2:
            raise ValueError("successor v-nodes require a shape with >= 2 points")
        last_dir = vnode.last_direction
        common = neighbor(vnode.point, last_dir)
        successor_point = neighbor(vnode.point, rotate_cw(last_dir, 1))
        if successor_point not in self._points:
            raise RuntimeError(
                "inconsistent local boundary: clockwise successor point "
                f"{successor_point} of {vnode.point} is unoccupied"
            )
        wanted_dir = direction_between(successor_point, common)
        for candidate in self.vnodes_of(successor_point):
            if wanted_dir in candidate.boundary:
                return candidate, common
        raise RuntimeError(
            f"no v-node of {successor_point} contains the common point {common}"
        )

    def virtual_rings(self) -> List[VirtualRing]:
        """All oriented virtual rings of the shape, one per global boundary.

        The first ring in the returned list is always the outer one.  Rings
        are built by following clockwise successors (Observation 3); by
        Observation 4 the outer ring's counts sum to 6 and every inner ring's
        counts sum to -6.
        """
        if self._rings is not None:
            return list(self._rings)
        if len(self._points) < 2:
            raise ValueError("virtual rings require a shape with >= 2 points")
        area = self.area_points
        # Every v-node once, sorted by (point, boundary): each ring starts
        # at the first v-node no earlier ring visited.  ``slot`` maps a
        # boundary point and one direction of a local boundary to the
        # index of that boundary's v-node, which is how a walk finds the
        # successor v-node containing the common point (Observation 3).
        vnodes = sorted(self.all_vnodes(),
                        key=lambda v: (v.point, v.boundary))
        slot: Dict[Tuple[Point, int], int] = {}
        for index, vnode in enumerate(vnodes):
            for direction in vnode.boundary:
                slot[vnode.point, direction] = index
        visited = [False] * len(vnodes)
        rings: List[VirtualRing] = []
        for start in range(len(vnodes)):
            if visited[start]:
                continue
            ordered: List[VNode] = []
            is_outer = False
            current = start
            while True:
                visited[current] = True
                vnode = vnodes[current]
                ordered.append(vnode)
                last = vnode.last_direction
                common = neighbor(vnode.point, last)
                successor = neighbor(vnode.point, (last + 1) % NUM_DIRECTIONS)
                current = slot.get(
                    (successor, direction_between(successor, common)), -1)
                if current < 0:
                    raise RuntimeError(
                        f"no v-node of {successor} contains the common "
                        f"point {common}")
                if common not in area:  # empty and in no hole
                    is_outer = True
                if current == start:
                    break
            rings.append(VirtualRing(tuple(ordered), is_outer))
        rings.sort(key=lambda ring: (not ring.is_outer, sorted(ring.points)[0]))
        self._rings = rings
        return list(rings)

    def outer_ring(self) -> VirtualRing:
        """The virtual ring of the global outer boundary."""
        for ring in self.virtual_rings():
            if ring.is_outer:
                return ring
        raise RuntimeError("shape has no outer ring")

    def inner_rings(self) -> List[VirtualRing]:
        """The virtual rings of the inner boundaries (one per hole boundary)."""
        return [ring for ring in self.virtual_rings() if not ring.is_outer]

    # -- misc -------------------------------------------------------------

    def centroid_point(self) -> Point:
        """An occupied point closest to the Euclidean centroid of the shape.

        Useful as a deterministic reference point for generators and tests.
        """
        if not self._points:
            raise ValueError("empty shape has no centroid")
        mean_q = sum(q for q, _ in self._points) / len(self._points)
        mean_r = sum(r for _, r in self._points) / len(self._points)
        return min(
            self._points,
            key=lambda p: (abs(p[0] - mean_q) + abs(p[1] - mean_r), p),
        )

    def translated(self, dq: int, dr: int) -> "Shape":
        """Return a copy of the shape translated by ``(dq, dr)``."""
        return Shape((q + dq, r + dr) for q, r in self._points)
