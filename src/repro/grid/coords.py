"""Axial coordinates on the infinite triangular grid.

The particles of the amoebot model live on the triangular grid ``G`` (the
infinite lattice in which every point has exactly six neighbours).  We
represent grid points with axial coordinates ``(q, r)`` and fix a global
clockwise ordering of the six directions, matching the paper's convention
that all particles share clockwise chirality (Section 2.2 of the paper).

Under the standard planar embedding used throughout this package the point
``(q, r)`` sits at Cartesian position ``(q + r / 2, r * sqrt(3) / 2)`` with
the y axis pointing *down* (screen coordinates), so the directions below are
listed in clockwise order as seen on screen.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple

Point = Tuple[int, int]

#: The six neighbour offsets in clockwise order.  Index ``i`` is the global
#: direction ``i``; a particle's port ``p`` maps to the global direction
#: ``(p + orientation_offset) % 6``.
DIRECTIONS: Tuple[Point, ...] = (
    (1, 0),    # E
    (0, 1),    # SE
    (-1, 1),   # SW
    (-1, 0),   # W
    (0, -1),   # NW
    (1, -1),   # NE
)

#: Human readable names for the six directions, same order as DIRECTIONS.
DIRECTION_NAMES: Tuple[str, ...] = ("E", "SE", "SW", "W", "NW", "NE")

NUM_DIRECTIONS = 6


def direction_index(name_or_index) -> int:
    """Normalise a direction given by name (``"E"``) or index (``0``)."""
    if isinstance(name_or_index, str):
        try:
            return DIRECTION_NAMES.index(name_or_index.upper())
        except ValueError:
            raise ValueError(f"unknown direction name: {name_or_index!r}") from None
    index = int(name_or_index)
    if not 0 <= index < NUM_DIRECTIONS:
        raise ValueError(f"direction index out of range: {index}")
    return index


def opposite_direction(direction: int) -> int:
    """Return the direction pointing the other way (``E`` -> ``W``)."""
    return (direction_index(direction) + 3) % NUM_DIRECTIONS


def rotate_cw(direction: int, steps: int = 1) -> int:
    """Rotate a direction clockwise by ``steps`` sixths of a turn."""
    return (direction_index(direction) + steps) % NUM_DIRECTIONS


def rotate_ccw(direction: int, steps: int = 1) -> int:
    """Rotate a direction counter-clockwise by ``steps`` sixths of a turn."""
    return (direction_index(direction) - steps) % NUM_DIRECTIONS


def neighbor(point: Point, direction: int) -> Point:
    """Return the neighbour of ``point`` in the given global direction."""
    # Hot path of every activation: index directly for the canonical int
    # case, fall back to the normalising lookup for names / out-of-range.
    if type(direction) is int and 0 <= direction < NUM_DIRECTIONS:
        dq, dr = DIRECTIONS[direction]
    else:
        dq, dr = DIRECTIONS[direction_index(direction)]
    return (point[0] + dq, point[1] + dr)


def neighbors(point: Point) -> List[Point]:
    """Return the six neighbours of ``point`` in clockwise order."""
    q, r = point
    return [(q + dq, r + dr) for dq, dr in DIRECTIONS]


#: point -> the tuple of its six neighbours, clockwise (see
#: :func:`neighbors_interned`).  Cleared wholesale at the safety cap; real
#: workloads revisit the same points constantly, so the cache stabilises at
#: the size of the visited region.
_RING_CACHE: dict = {}
_RING_CACHE_MAX = 1 << 20


def neighbors_interned(point: Point) -> Tuple[Point, ...]:
    """The six neighbours of ``point`` in clockwise order, interned.

    Unlike :func:`neighbors` the returned tuple is cached and shared, so
    repeated neighbourhood scans of the same point (flood fills, BFS, local
    boundary tests) allocate nothing after the first visit.
    Callers must treat the result as immutable.
    """
    ring = _RING_CACHE.get(point)
    if ring is None:
        if len(_RING_CACHE) >= _RING_CACHE_MAX:
            _RING_CACHE.clear()
        q, r = point
        ring = _RING_CACHE[point] = tuple(
            (q + dq, r + dr) for dq, dr in DIRECTIONS
        )
    return ring


_DELTA_TO_DIRECTION = {delta: index for index, delta in enumerate(DIRECTIONS)}


def direction_between(src: Point, dst: Point) -> int:
    """Return the global direction index from ``src`` to its neighbour ``dst``.

    Raises ``ValueError`` if the two points are not adjacent.
    """
    direction = _DELTA_TO_DIRECTION.get((dst[0] - src[0], dst[1] - src[1]))
    if direction is None:
        raise ValueError(f"{src} and {dst} are not adjacent grid points")
    return direction



def are_adjacent(a: Point, b: Point) -> bool:
    """Return True iff the two grid points are neighbours."""
    return (b[0] - a[0], b[1] - a[1]) in DIRECTIONS


def grid_distance(a: Point, b: Point) -> int:
    """Shortest-path distance between two points on the full triangular grid.

    This is the classical hex/axial distance
    ``(|dq| + |dr| + |dq + dr|) / 2``.
    """
    dq = a[0] - b[0]
    dr = a[1] - b[1]
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def to_cartesian(point: Point) -> Tuple[float, float]:
    """Planar embedding of a grid point (y axis pointing down)."""
    q, r = point
    return (q + r / 2.0, r * math.sqrt(3.0) / 2.0)


def translate(point: Point, direction: int, steps: int = 1) -> Point:
    """Return the point reached from ``point`` after ``steps`` moves along
    ``direction``."""
    dq, dr = DIRECTIONS[direction_index(direction)]
    return (point[0] + dq * steps, point[1] + dr * steps)


def line(start: Point, direction: int, length: int) -> List[Point]:
    """Return ``length`` collinear points starting at ``start`` and marching
    along ``direction`` (the start point is included)."""
    if length < 0:
        raise ValueError("length must be non-negative")
    dq, dr = DIRECTIONS[direction_index(direction)]
    q, r = start
    return [(q + dq * i, r + dr * i) for i in range(length)]


def ring(center: Point, radius: int) -> List[Point]:
    """Return the hexagonal ring of points at grid distance exactly ``radius``
    from ``center``, listed in clockwise order starting from the point at
    ``center + radius * E``.

    ``radius == 0`` returns ``[center]``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        return [center]
    points: List[Point] = []
    # Start on the E axis and walk clockwise.  From the easternmost point the
    # first clockwise side of the hexagon heads SW, then W, NW, NE, E, SE.
    current = translate(center, 0, radius)
    side_directions = [2, 3, 4, 5, 0, 1]
    for direction in side_directions:
        for _ in range(radius):
            points.append(current)
            current = neighbor(current, direction)
    return points


def disk(center: Point, radius: int) -> List[Point]:
    """Return all points at grid distance at most ``radius`` from ``center``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    points: List[Point] = []
    for rad in range(radius + 1):
        points.extend(ring(center, rad))
    return points


def bounding_box(points: Iterable[Point]) -> Tuple[int, int, int, int]:
    """Return ``(min_q, min_r, max_q, max_r)`` for a non-empty point set."""
    iterator: Iterator[Point] = iter(points)
    try:
        q0, r0 = next(iterator)
    except StopIteration:
        raise ValueError("bounding_box of an empty point collection") from None
    min_q = max_q = q0
    min_r = max_r = r0
    for q, r in iterator:
        min_q = min(min_q, q)
        max_q = max(max_q, q)
        min_r = min(min_r, r)
        max_r = max(max_r, r)
    return (min_q, min_r, max_q, max_r)


def normalize(points: Sequence[Point]) -> List[Point]:
    """Translate a point set so its bounding box starts at the origin and
    return the points sorted.  Useful for canonical comparisons in tests."""
    if not points:
        return []
    min_q, min_r, _, _ = bounding_box(points)
    return sorted((q - min_q, r - min_r) for q, r in points)
