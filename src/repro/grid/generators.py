"""Deterministic, seedable generators of particle-system shapes.

The paper evaluates no specific workloads (it is a theory paper), so the
benchmark harness uses the shape families below, chosen to exercise the
parameters appearing in the paper's bounds:

* hexagons and parallelograms — dense, hole-free, ``D_A = D``;
* lines and combs — elongated shapes where ``D`` is large relative to ``n``;
* random connected blobs — irregular outer boundaries;
* shapes with punched holes and annuli — ``D_A`` can be much smaller than
  ``D``, the regime where Algorithm DLE's ``O(D_A)`` bound beats the erosion
  baselines and where erosion-only algorithms are inapplicable;
* spirals — long outer boundaries (large ``L_out``) stressing the OBD
  primitive;
* articulation chains — blobs joined by 1-wide bridges where every bridge
  point is a cut vertex, the degenerate case for connectivity-preserving
  perturbation (the fault adversary can never remove a bridge point);
* random connected shapes with a controlled density of punched holes.

Every generator returns a connected :class:`~repro.grid.shape.Shape` and is a
pure function of its arguments (random generators take an explicit seed).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Set, Tuple

from .coords import Point, disk, grid_distance, line, neighbor, neighbors, ring, translate
from .shape import Shape, connected_components

__all__ = [
    "hexagon",
    "parallelogram",
    "line_shape",
    "comb",
    "random_blob",
    "hexagon_with_holes",
    "annulus",
    "spiral",
    "random_holey_blob",
    "triangle",
    "articulation_chain",
    "random_connected",
    "SHAPE_FAMILIES",
    "make_shape",
]

ORIGIN: Point = (0, 0)


def hexagon(radius: int, center: Point = ORIGIN) -> Shape:
    """A filled hexagon of the given radius (radius 0 is a single point)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return Shape(disk(center, radius))


def triangle(side: int, corner: Point = ORIGIN) -> Shape:
    """A filled triangular wedge with ``side`` points on each edge."""
    if side < 1:
        raise ValueError("side must be positive")
    points: List[Point] = []
    for row in range(side):
        start = translate(corner, 1, row)  # march SE row by row
        points.extend(line(start, 0, side - row))
    return Shape(points)


def parallelogram(width: int, height: int, corner: Point = ORIGIN) -> Shape:
    """A ``width x height`` parallelogram of grid points."""
    if width < 1 or height < 1:
        raise ValueError("width and height must be positive")
    points = [
        (corner[0] + dq, corner[1] + dr)
        for dq in range(width)
        for dr in range(height)
    ]
    return Shape(points)


def line_shape(length: int, direction: int = 0, start: Point = ORIGIN) -> Shape:
    """A straight line of ``length`` points."""
    if length < 1:
        raise ValueError("length must be positive")
    return Shape(line(start, direction, length))


def comb(teeth: int, tooth_length: int, spacing: int = 2,
         start: Point = ORIGIN) -> Shape:
    """A comb: a spine with ``teeth`` perpendicular teeth.

    Combs have small ``n`` relative to their boundary length and are a
    classical worst case for erosion processes.
    """
    if teeth < 1 or tooth_length < 1 or spacing < 1:
        raise ValueError("teeth, tooth_length and spacing must be positive")
    points: Set[Point] = set()
    spine_length = (teeth - 1) * spacing + 1
    points.update(line(start, 0, spine_length))
    for tooth in range(teeth):
        base = translate(start, 0, tooth * spacing)
        points.update(line(base, 1, tooth_length + 1))
    return Shape(points)


def random_blob(n: int, seed: int = 0, center: Point = ORIGIN) -> Shape:
    """A random connected shape of exactly ``n`` points.

    Grown by repeatedly attaching a uniformly random empty neighbour of the
    current shape (an Eden-model growth process), which produces irregular
    but compact connected shapes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    points: Set[Point] = {center}
    # The frontier (empty points next to the blob) is kept sorted, so each
    # draw sees the list a fresh ``sorted(frontier)`` would build; ``seen``
    # holds the blob and its frontier.
    frontier: List[Point] = sorted(neighbors(center))
    seen: Set[Point] = {center, *frontier}
    while len(points) < n:
        candidate = rng.choice(frontier)
        points.add(candidate)
        _remove_sorted(frontier, candidate)
        for u in neighbors(candidate):
            if u not in seen:
                seen.add(u)
                insort(frontier, u)
    return Shape(points)


def _remove_sorted(items: List[Point], item: Point) -> None:
    """Remove ``item``, which must be present, from the sorted list."""
    del items[bisect_left(items, item)]


def hexagon_with_holes(radius: int, hole_radius: int = 1,
                       hole_spacing: int = 4, center: Point = ORIGIN) -> Shape:
    """A hexagon with a periodic pattern of hexagonal holes punched out.

    Holes never touch the outer boundary and never touch each other, so the
    resulting shape is connected with multiple holes.
    """
    if radius < hole_radius + 2:
        raise ValueError("radius too small to host holes")
    base = set(disk(center, radius))
    holes: Set[Point] = set()
    step = hole_spacing
    for hq in range(-radius, radius + 1, step):
        for hr in range(-radius, radius + 1, step):
            hole_center = (center[0] + hq, center[1] + hr)
            if hole_center == center and hq == 0 and hr == 0:
                # keep the centre solid so the shape stays visually anchored
                continue
            if grid_distance(hole_center, center) > radius - hole_radius - 2:
                continue
            holes.update(disk(hole_center, hole_radius))
    shape_points = base - holes
    # Punching holes from a hexagon with the margins above cannot disconnect
    # it, but guard against pathological parameters anyway.
    components = connected_components(shape_points)
    largest = max(components, key=len)
    return Shape(largest)


def annulus(outer_radius: int, inner_radius: int, center: Point = ORIGIN) -> Shape:
    """A hexagonal annulus: all points with inner_radius < d <= outer_radius.

    For thin annuli the diameter ``D`` (walking around the ring) is far larger
    than the area diameter ``D_A`` (cutting across the hole), which is exactly
    the regime in which the paper's ``O(D_A)`` bound is strictly better than
    ``O(D)``.
    """
    if inner_radius < 0 or outer_radius <= inner_radius:
        raise ValueError("need 0 <= inner_radius < outer_radius")
    points = [
        p for p in disk(center, outer_radius)
        if grid_distance(p, center) > inner_radius
    ]
    return Shape(points)


def spiral(arms: int, arm_length: int, start: Point = ORIGIN) -> Shape:
    """A hexagonal spiral path with a long outer boundary.

    The spiral walks outwards turning clockwise; it is simply connected, thin
    (every point is a boundary point) and has ``L_out`` proportional to ``n``.
    """
    if arms < 1 or arm_length < 1:
        raise ValueError("arms and arm_length must be positive")
    points: List[Point] = [start]
    current = start
    direction = 0
    length = arm_length
    for arm in range(arms):
        for _ in range(length):
            current = neighbor(current, direction)
            points.append(current)
        direction = (direction + 1) % 6
        if arm % 2 == 1:
            length += arm_length
    return Shape(points)


def random_holey_blob(n: int, hole_fraction: float = 0.15, seed: int = 0,
                      center: Point = ORIGIN) -> Shape:
    """A random connected blob with random interior holes.

    Starts from a random blob of roughly ``n / (1 - hole_fraction)`` points
    and removes random interior points (never disconnecting the shape and
    never opening the outer boundary), producing holes of size >= 1.
    """
    if n < 7:
        raise ValueError("n must be at least 7 to host holes")
    if not 0.0 <= hole_fraction < 0.9:
        raise ValueError("hole_fraction must be in [0, 0.9)")
    rng = random.Random(seed)
    target_total = max(n, int(round(n / max(1e-9, 1.0 - hole_fraction))))
    blob = random_blob(target_total, seed=seed ^ 0x5BD1, center=center)
    points: Set[Point] = set(blob.points)
    removable_budget = target_total - n
    interior = [
        p for p in sorted(points)
        if all(u in points for u in neighbors(p))
    ]
    rng.shuffle(interior)
    removed = 0
    for candidate in interior:
        if removed >= removable_budget:
            break
        if not all(u in points for u in neighbors(candidate)):
            continue  # no longer interior, removing it would touch a boundary
        # An interior point's six neighbours form a cycle, so removing it
        # keeps the shape connected.
        points.discard(candidate)
        removed += 1
    return Shape(points)


def articulation_chain(blobs: int, blob_radius: int = 1,
                       bridge_length: int = 2, start: Point = ORIGIN) -> Shape:
    """A chain of hexagonal blobs joined by 1-wide bridges.

    Every bridge point is a cut vertex (articulation point) of the shape:
    removing any one of them disconnects the chain.  This is the worst
    case for connectivity-preserving shape perturbation — the fault
    adversary's remove step can never fire on a bridge — and a stress
    case for erosion, which must consume the chain blob by blob.
    """
    if blobs < 1 or blob_radius < 0 or bridge_length < 1:
        raise ValueError("need blobs >= 1, blob_radius >= 0, bridge_length >= 1")
    spacing = 2 * blob_radius + bridge_length + 1
    points: Set[Point] = set()
    for index in range(blobs):
        center = translate(start, 0, index * spacing)
        points.update(disk(center, blob_radius))
        if index + 1 < blobs:
            bridge = translate(start, 0, index * spacing + blob_radius + 1)
            points.update(line(bridge, 0, bridge_length))
    return Shape(points)


def random_connected(n: int, hole_density: float = 0.1, seed: int = 0,
                     center: Point = ORIGIN) -> Shape:
    """A random connected shape of exactly ``n`` points with a controlled
    density of single-point holes.

    Grows an Eden-style blob of ``n`` points (preferring frontier points
    touching at least two occupied points, so the blob is compact enough
    to have an interior), then repeatedly punches out a random *interior*
    point and regrows one point on the outer frontier to keep the count
    exact.  An interior point has all six neighbours
    occupied, and those six form a cycle around it, so its removal can
    never disconnect the shape; for the same reason no interior point is
    ever adjacent to an existing hole, so the punched holes stay
    isolated, permanently enclosed single-point holes.  The process
    stops at roughly ``hole_density * n`` holes (or earlier when no
    interior point remains, on very thin blobs).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= hole_density <= 0.2:
        raise ValueError("hole_density must be in [0, 0.2]")
    rng = random.Random(seed)
    points: Set[Point] = {center}
    # ``touching[p]`` counts the occupied neighbours of each point in or
    # next to the shape.  Three sorted lists follow every growth and punch,
    # so each draw sees the list a rescan would build: the frontier (empty
    # points next to the shape, never a hole, as holes touch only occupied
    # points), the frontier points touching two or more occupied points,
    # and the interior points (all six neighbours occupied).
    touching: Dict[Point, int] = dict.fromkeys(neighbors(center), 1)
    touching[center] = 0
    frontier: List[Point] = sorted(neighbors(center))
    compact: List[Point] = []
    interior: List[Point] = []

    def grow_one() -> None:
        candidate = rng.choice(compact or frontier)
        _remove_sorted(frontier, candidate)
        if touching[candidate] >= 2:
            _remove_sorted(compact, candidate)
        points.add(candidate)
        if touching[candidate] == 6:
            insort(interior, candidate)
        for u in neighbors(candidate):
            count = touching[u] = touching.get(u, 0) + 1
            if u in points:
                if count == 6:
                    insort(interior, u)
            elif count == 1:
                insort(frontier, u)
            elif count == 2:
                insort(compact, u)

    while len(points) < n:
        grow_one()
    for _ in range(int(round(hole_density * n))):
        if not interior:
            break
        hole = rng.choice(interior)
        _remove_sorted(interior, hole)
        points.discard(hole)
        for u in neighbors(hole):
            if touching[u] == 6:
                _remove_sorted(interior, u)
            touching[u] -= 1
        grow_one()
    return Shape(points)


#: Registry of named shape families used by the benchmark harness.  Each
#: entry maps a family name to a callable ``(size, seed) -> Shape`` where
#: ``size`` is an abstract scale parameter (not the particle count).
SHAPE_FAMILIES: Dict[str, Callable[[int, int], Shape]] = {
    "hexagon": lambda size, seed: hexagon(size),
    "parallelogram": lambda size, seed: parallelogram(2 * size, size),
    "line": lambda size, seed: line_shape(4 * size + 1),
    "comb": lambda size, seed: comb(teeth=size + 1, tooth_length=size),
    "blob": lambda size, seed: random_blob(3 * size * size + 1, seed=seed),
    "holey": lambda size, seed: hexagon_with_holes(2 * size + 3, hole_radius=1,
                                                   hole_spacing=4),
    "annulus": lambda size, seed: annulus(outer_radius=2 * size + 2,
                                          inner_radius=2 * size - 1),
    "spiral": lambda size, seed: spiral(arms=2 * size, arm_length=3),
    "holey_blob": lambda size, seed: random_holey_blob(3 * size * size + 10,
                                                       seed=seed),
    "chain": lambda size, seed: articulation_chain(blobs=size + 1,
                                                   bridge_length=size + 1),
    "random_connected": lambda size, seed: random_connected(
        3 * size * size + 7, hole_density=0.08, seed=seed),
}


def make_shape(family: str, size: int, seed: int = 0) -> Shape:
    """Instantiate a named shape family at the given scale."""
    try:
        factory = SHAPE_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown shape family {family!r}; known: {sorted(SHAPE_FAMILIES)}"
        ) from None
    shape = factory(size, seed)
    if not shape.is_connected():
        raise RuntimeError(f"generator {family!r} produced a disconnected shape")
    return shape
