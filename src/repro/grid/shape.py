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
        self._outer_boundary: Optional[FrozenSet[Point]] = None

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

    def without(self, point: Point) -> "Shape":
        """Return a new shape with ``point`` removed."""
        return Shape(self._points - {(int(point[0]), int(point[1]))})

    def with_point(self, point: Point) -> "Shape":
        """Return a new shape with ``point`` added."""
        return Shape(self._points | {(int(point[0]), int(point[1]))})

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
        with a neighbour outside the area.

        Memoised like :attr:`area_points`: ``L_out``, ``L_max`` and the
        OBD check of every cell on a cached shape read it."""
        if self._outer_boundary is None:
            area = self.area_points
            self._outer_boundary = frozenset(
                p for p in self._points
                if not area.issuperset(neighbors_interned(p))
            )
        return self._outer_boundary

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
