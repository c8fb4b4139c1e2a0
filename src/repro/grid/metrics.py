"""Exact shape metrics used by the paper's bounds.

All quantities are defined in Section 2 of the paper:

* ``n``      — number of particles / occupied points,
* ``n_A``    — number of points of the area (shape plus holes),
* ``D``      — diameter of the shape w.r.t. shortest paths inside the shape,
* ``D_A``    — diameter of the shape w.r.t. shortest paths inside the area,
* ``D_G``    — diameter of the shape w.r.t. the full triangular grid,
* ``L_out``  — number of points on the outer boundary,
* ``L_max``  — maximum boundary length over all boundaries,
* ``eps_G(v)`` — eccentricity of ``v`` w.r.t. the grid (greatest grid
  distance from ``v`` to any shape point).

Every value is exact.  The grid distance is ``max(|dq|, |dr|, |dq + dr|)``
(:func:`repro.grid.coords.grid_distance`), so ``D_G`` and every grid
eccentricity are closed forms over the extremes of the three axial
coordinates ``q``, ``r`` and ``q + r``: O(n) for the whole shape.

``D`` and ``D_A`` are found with the BoundingDiameters algorithm (Takes &
Kosters, CIKM 2011).  It keeps a lower and an upper bound on the
eccentricity of every shape point, runs a breadth-first search only from
points whose bounds still leave them able to beat the best diameter known,
and stops when no point can.  The lower bounds start at the grid
eccentricities, which is valid because a path inside any point set is never
shorter than the grid distance; on convex shapes that settles the diameter
after one or two searches.  Each search costs O(n_A) and each bound update
O(n).  A shape on which every point ties (a thin ring walked around) can
need many more searches, at worst one per point plus one, which is the cost
of the brute-force :func:`diameter_within` the tests compare against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from ..telemetry import counter as _metric
from .coords import Point, neighbors_interned
from .shape import Shape

__all__ = [
    "bfs_distances",
    "eccentricity_within",
    "diameter_within",
    "flood_depth",
    "grid_eccentricity",
    "grid_diameter",
    "ShapeMetrics",
    "compute_metrics",
]


def bfs_distances(source: Point, allowed: AbstractSet[Point],
                  targets: Optional[AbstractSet[Point]] = None) -> Dict[Point, int]:
    """Shortest-path distances from ``source`` to points of ``allowed``.

    Paths may only use points of ``allowed``.  If ``targets`` is given the
    search stops once all targets have been reached (distances to some other
    points may be missing from the result).
    """
    if source not in allowed:
        raise ValueError("source must belong to the allowed set")
    distances: Dict[Point, int] = {source: 0}
    remaining = set(targets) - {source} if targets is not None else None
    queue = deque([source])
    while queue:
        current = queue.popleft()
        d = distances[current]
        for nxt in neighbors_interned(current):
            if nxt in allowed and nxt not in distances:
                distances[nxt] = d + 1
                queue.append(nxt)
                if remaining is not None:
                    remaining.discard(nxt)
        if remaining is not None and not remaining:
            break
    return distances


def eccentricity_within(source: Point, shape_points: AbstractSet[Point],
                        allowed: AbstractSet[Point]) -> int:
    """Eccentricity of ``source``: the greatest distance (within ``allowed``)
    from ``source`` to any point of ``shape_points``."""
    distances = bfs_distances(source, allowed, targets=shape_points)
    missing = [p for p in shape_points if p not in distances]
    if missing:
        raise ValueError(
            f"{len(missing)} shape points are unreachable from {source} "
            "within the allowed set"
        )
    return max(distances[p] for p in shape_points)


def diameter_within(shape_points: AbstractSet[Point],
                    allowed: AbstractSet[Point]) -> int:
    """Diameter of ``shape_points`` w.r.t. shortest paths within ``allowed``.

    This is the greatest eccentricity over the shape's points (Section 2.1),
    found by brute force: one search per point, O(n · n_A).
    """
    if not shape_points:
        raise ValueError("diameter of an empty point set")
    return max(
        eccentricity_within(p, shape_points, allowed) for p in shape_points
    )


def flood_depth(sources: Iterable[Point], allowed: AbstractSet[Point]) -> int:
    """Greatest distance (within ``allowed``) from the nearest source to any
    point of ``allowed``, by one multi-source breadth-first search.

    This is the number of hops a flood started at every source at once
    needs to cover ``allowed``.  Raises ``ValueError`` if a source lies
    outside ``allowed`` or some point of ``allowed`` is unreachable (with
    no source at all, every point is).
    """
    seen = set(sources)
    if not seen <= allowed:
        raise ValueError("sources must belong to the allowed set")
    frontier = sorted(seen)
    depth = 0
    while True:
        reached: List[Point] = []
        for current in frontier:
            for nxt in neighbors_interned(current):
                if nxt in allowed and nxt not in seen:
                    seen.add(nxt)
                    reached.append(nxt)
        if not reached:
            break
        frontier = reached
        depth += 1
    if len(seen) < len(allowed):
        raise ValueError(
            f"{len(allowed) - len(seen)} points are unreachable from the "
            "sources within the allowed set"
        )
    return depth


#: ``(min q, max q, min r, max r, min q+r, max q+r)`` of a point set: the
#: three axis extremes every grid eccentricity reads.
_Extremes = Tuple[int, int, int, int, int, int]


def _axis_extremes(points: AbstractSet[Point]) -> _Extremes:
    """The axis extremes of a non-empty point set."""
    qs = [p[0] for p in points]
    rs = [p[1] for p in points]
    ss = [q + r for q, r in zip(qs, rs)]
    return min(qs), max(qs), min(rs), max(rs), min(ss), max(ss)


def _grid_ecc(point: Point, extremes: _Extremes) -> int:
    """Grid eccentricity of ``point`` w.r.t. a set with these axis extremes."""
    lo_q, hi_q, lo_r, hi_r, lo_s, hi_s = extremes
    q, r = point
    s = q + r
    return max(q - lo_q, hi_q - q, r - lo_r, hi_r - r, s - lo_s, hi_s - s)


def grid_eccentricity(source: Point, shape_points: AbstractSet[Point]) -> int:
    """Eccentricity of ``source`` w.r.t. the full grid metric, O(n)."""
    if not shape_points:
        raise ValueError("eccentricity w.r.t. an empty point set")
    return _grid_ecc(source, _axis_extremes(shape_points))


def grid_diameter(shape_points: AbstractSet[Point]) -> int:
    """Diameter of the point set w.r.t. the full grid metric (``D_G``): the
    largest spread of any of the three axial coordinates, O(n)."""
    if not shape_points:
        raise ValueError("diameter of an empty point set")
    lo_q, hi_q, lo_r, hi_r, lo_s, hi_s = _axis_extremes(shape_points)
    return max(hi_q - lo_q, hi_r - lo_r, hi_s - lo_s)


def _bounding_diameter(points: AbstractSet[Point], allowed: AbstractSet[Point],
                       lower: Dict[Point, int], extremes: _Extremes) -> int:
    """Exact diameter of ``points`` w.r.t. paths within ``allowed``, by
    BoundingDiameters (see the module docstring).

    ``lower`` holds a lower bound on every point's eccentricity and is
    tightened in place.  A search from ``v`` at distance ``d`` from ``w``
    gives ``max(ecc(v) - d, d) <= ecc(w) <= ecc(v) + d``; a point whose
    upper bound cannot beat the best diameter known drops out.  The first
    search starts from the point of ``allowed`` nearest the grid centre
    (``extremes`` are the shape's axis extremes), which may be a hole point
    when that is more central than any shape point; such a source only
    yields ``ecc(v) - d`` as a lower bound.  Later searches alternate
    between the remaining point with the largest upper bound (a peripheral
    point, which may raise the diameter) and the one with the smallest
    lower bound (a central point, which tightens the upper bounds).
    """
    # Number ``allowed`` once, in sorted order, so every search runs over
    # integer adjacency lists and a distance list.  Ascending indices are
    # sorted points, so the candidate list and the first-wins ties of
    # ``min``/``max`` pick the same sources as a search over the points.
    order = sorted(allowed)
    size = len(order)
    index = {point: i for i, point in enumerate(order)}
    get = index.get
    adjacency = [[j for j in map(get, neighbors_interned(point))
                  if j is not None] for point in order]
    members = [i for i, point in enumerate(order) if point in points]
    low = [0] * size
    for i in members:
        low[i] = lower[order[i]]
    upper = [size] * size
    best = max(map(low.__getitem__, members))
    candidates = members
    source = min(range(size), key=lambda i: _grid_ecc(order[i], extremes))
    peripheral = True
    while True:
        _metric("metrics.bfs_runs").inc()
        dist = [-1] * size
        dist[source] = 0
        queue = [source]
        for current in queue:
            step = dist[current] + 1
            for nxt in adjacency[current]:
                if dist[nxt] < 0:
                    dist[nxt] = step
                    queue.append(nxt)
        if len(queue) < size:
            raise ValueError(
                f"{size - len(queue)} points are unreachable "
                f"from {order[source]} within the allowed set"
            )
        ecc = max(map(dist.__getitem__, members))
        on_shape = order[source] in points
        for i in candidates:
            d = dist[i]
            bound = ecc - d
            if on_shape and d > bound:
                bound = d
            if bound > low[i]:
                low[i] = bound
            if ecc + d < upper[i]:
                upper[i] = ecc + d
        best = max(best, max(map(low.__getitem__, candidates)))
        candidates = [i for i in candidates if upper[i] > best]
        if not candidates:
            break
        if peripheral:
            source = max(candidates, key=upper.__getitem__)
        else:
            source = min(candidates, key=low.__getitem__)
        peripheral = not peripheral
    for i in members:
        lower[order[i]] = low[i]
    return best


@dataclass(frozen=True)
class ShapeMetrics:
    """The bundle of parameters appearing in the paper's complexity bounds."""

    n: int
    n_area: int
    diameter: int
    area_diameter: int
    grid_diam: int
    l_out: int
    l_max: int
    num_holes: int

    def as_dict(self) -> Dict[str, int]:
        """Dictionary view with the paper's notation as keys."""
        return {
            "n": self.n,
            "n_A": self.n_area,
            "D": self.diameter,
            "D_A": self.area_diameter,
            "D_G": self.grid_diam,
            "L_out": self.l_out,
            "L_max": self.l_max,
            "holes": self.num_holes,
        }


def compute_metrics(shape: Shape) -> ShapeMetrics:
    """Compute all metrics of a connected shape, exactly.

    ``D_G`` and the grid eccentricities come from the three axis extremes
    in O(n).  ``D_A`` (searches through the area) and then ``D`` (searches
    through the shape) come from BoundingDiameters seeded with those grid
    eccentricities; each search costs O(n_A), and convex shapes need one or
    two per diameter.  Raises ``ValueError`` for a disconnected shape.
    """
    if not shape.is_connected():
        raise ValueError("metrics are defined for connected shapes only")
    points = shape.points
    area = shape.area_points
    extremes = _axis_extremes(points)
    lower = {p: _grid_ecc(p, extremes) for p in points}
    grid_diam = max(lower.values())
    holes = shape.holes
    # Both searches share the lower bounds: an eccentricity through the
    # area is also a lower bound on the one through the shape.  Without
    # holes the area is the shape, so D = D_A.
    area_diameter = _bounding_diameter(points, area, lower, extremes)
    diameter = (_bounding_diameter(points, points, lower, extremes)
                if holes else area_diameter)
    return ShapeMetrics(
        n=len(points),
        n_area=len(area),
        diameter=diameter,
        area_diameter=area_diameter,
        grid_diam=grid_diam,
        l_out=shape.outer_boundary_length,
        l_max=shape.max_boundary_length,
        num_holes=len(holes),
    )
