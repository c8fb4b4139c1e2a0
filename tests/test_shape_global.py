"""Tests for the global Shape structure: boundaries, holes, v-node rings.

These tests check the geometric observations the paper's analysis rests on
(Observation 1, Observation 4, Propositions 6 and 7) on concrete shapes.
"""

import pytest

from repro.grid.coords import neighbor, neighbors
from repro.grid.generators import (
    SHAPE_FAMILIES,
    annulus,
    comb,
    hexagon,
    hexagon_with_holes,
    line_shape,
    make_shape,
    parallelogram,
    random_blob,
    spiral,
)
from repro.grid.metrics import compute_metrics
from repro.grid.shape import Shape, VirtualRing

ORIGIN = (0, 0)


def walked_virtual_rings(shape):
    """The rings by the plain walk: start each ring at the smallest
    unvisited v-node and follow :meth:`Shape.clockwise_successor`, which
    recomputes the successor's local boundaries at every step.  The oracle
    for :meth:`Shape.virtual_rings`."""
    unvisited = set(shape.all_vnodes())
    rings = []
    while unvisited:
        start = min(unvisited, key=lambda v: (v.point, v.boundary))
        ordered = []
        is_outer = False
        current = start
        while True:
            ordered.append(current)
            unvisited.discard(current)
            nxt, common = shape.clockwise_successor(current)
            if shape.point_in_outer_face(common):
                is_outer = True
            if nxt == start:
                break
            current = nxt
        rings.append(VirtualRing(tuple(ordered), is_outer))
    rings.sort(key=lambda ring: (not ring.is_outer, sorted(ring.points)[0]))
    return rings


def triangle_like():
    """A simply connected irregular test shape (a filled triangular wedge)."""
    from repro.grid.generators import triangle

    return triangle(6)


class TestBasics:
    def test_len_and_contains(self):
        shape = hexagon(2)
        assert len(shape) == 19
        assert ORIGIN in shape
        assert (10, 10) not in shape

    def test_equality_with_sets(self):
        shape = Shape([(0, 0), (1, 0)])
        assert shape == {(0, 0), (1, 0)}
        assert shape == Shape([(1, 0), (0, 0)])

    def test_without_and_with_point(self):
        shape = hexagon(1)
        smaller = shape.without(ORIGIN)
        assert ORIGIN not in smaller
        assert len(smaller) == len(shape) - 1
        assert ORIGIN in smaller.with_point(ORIGIN)

    def test_translated(self):
        shape = hexagon(1).translated(5, -3)
        assert (5, -3) in shape
        assert len(shape) == 7

    def test_iteration_is_sorted(self):
        shape = Shape([(2, 0), (0, 0), (1, 0)])
        assert list(shape) == [(0, 0), (1, 0), (2, 0)]

    def test_centroid_point_is_in_shape(self):
        for shape in (hexagon(3), line_shape(9), random_blob(40, seed=3)):
            assert shape.centroid_point() in shape


class TestHolesAndFaces:
    def test_hexagon_has_no_holes(self):
        assert hexagon(3).holes == []
        assert hexagon(3).is_simply_connected()

    def test_punctured_hexagon_has_one_hole(self):
        shape = hexagon(2).without(ORIGIN)
        assert len(shape.holes) == 1
        assert shape.hole_points == {ORIGIN}
        assert not shape.is_simply_connected()

    def test_annulus_hole_size(self):
        shape = annulus(4, 2)
        # The hole is the filled hexagon of radius 2: 19 points.
        assert len(shape.holes) == 1
        assert len(shape.holes[0]) == 1 + 3 * 2 * 3

    def test_hexagon_with_holes_hole_count(self):
        shape = hexagon_with_holes(7)
        assert len(shape.holes) >= 2

    def test_area_is_shape_plus_holes(self):
        shape = annulus(4, 1)
        area = shape.area_points
        assert area == shape.points | shape.hole_points
        assert len(area) == len(shape) + len(shape.hole_points)

    def test_point_in_outer_face(self):
        shape = annulus(4, 1)
        assert shape.point_in_outer_face((100, 100))
        assert shape.point_in_outer_face(neighbor((0, 4), 1))  is not None
        assert not shape.point_in_outer_face(ORIGIN)  # hole point
        assert shape.point_in_hole(ORIGIN)

    def test_occupied_point_is_in_no_face(self):
        shape = hexagon(2)
        assert not shape.point_in_outer_face((0, 2))
        assert not shape.point_in_hole((0, 2))

    def test_line_is_simply_connected(self):
        assert line_shape(12).is_simply_connected()

    def test_spiral_is_simply_connected(self):
        assert spiral(6, 3).is_simply_connected()


class TestBoundaries:
    def test_hexagon_outer_boundary_length(self):
        for radius in (1, 2, 3, 4):
            shape = hexagon(radius)
            assert shape.outer_boundary_length == 6 * radius

    def test_line_boundary_is_everything(self):
        shape = line_shape(7)
        assert shape.boundary_points == shape.points
        assert shape.outer_boundary == shape.points

    def test_interior_plus_boundary_partition(self):
        shape = hexagon(3)
        assert shape.interior_points | shape.boundary_points == shape.points
        assert not (shape.interior_points & shape.boundary_points)

    def test_hexagon_interior_is_smaller_hexagon(self):
        shape = hexagon(3)
        assert shape.interior_points == hexagon(2).points

    def test_annulus_has_inner_and_outer_boundary(self):
        shape = annulus(5, 2)
        outer = shape.outer_boundary
        inner = shape.inner_boundaries
        assert len(inner) == 1
        assert outer
        assert inner[0]
        assert not (outer & inner[0])

    def test_inner_boundary_adjacent_to_hole(self):
        for shape in (annulus(4, 1), hexagon_with_holes(7)):
            for index, hole in enumerate(shape.holes):
                assert shape.inner_boundary(index) == {
                    p for p in shape.points
                    if any(u in hole for u in neighbors(p))}

    def test_max_boundary_length(self):
        shape = annulus(5, 2)
        assert shape.max_boundary_length == max(
            shape.outer_boundary_length, len(shape.inner_boundaries[0])
        )

    def test_outer_boundary_subset_of_boundary(self):
        for shape in (hexagon(3), annulus(5, 2), comb(4, 3)):
            assert shape.outer_boundary <= shape.boundary_points

    def test_outer_boundary_is_memoised(self):
        # L_out, L_max and every OBD cell on a cached shape read it.
        shape = annulus(5, 2)
        first = shape.outer_boundary
        assert shape.outer_boundary is first
        assert first == {p for p in shape.points
                         if any(u not in shape.area_points
                                for u in neighbors(p))}


class TestErodableAndSCE:
    def test_proposition7_simply_connected_has_sce_point(self):
        # Proposition 7: every simply connected shape with >= 2 points has an
        # SCE point.
        candidates = [hexagon(2), line_shape(5), parallelogram(4, 3),
                      comb(3, 4), spiral(4, 3), random_blob(60, seed=1)]
        # Random blobs occasionally enclose a hole; Proposition 7 only talks
        # about simply connected shapes, so skip those instances.
        for shape in candidates:
            if not shape.is_simply_connected():
                continue
            assert shape.sce_points(), f"no SCE point in {shape!r}"

    def test_erodable_iff_single_outer_local_boundary(self):
        # Proposition 6 on a shape with a hole: hole-adjacent points with a
        # single local boundary facing the hole are NOT erodable.
        shape = hexagon(2).without(ORIGIN)
        for point in shape.points:
            erodable = shape.is_erodable(point)
            bounds = shape.local_boundaries(point)
            if erodable:
                assert len(bounds) == 1
                assert any(shape.point_in_outer_face(neighbor(point, d))
                           for d in bounds[0])

    def test_hexagon_corner_is_sce(self):
        shape = hexagon(2)
        corner = (2, 0)
        assert shape.is_sce(corner)
        assert shape.boundary_count(corner) == 1

    def test_hexagon_edge_midpoint_not_sce(self):
        shape = hexagon(2)
        # (1, 1) lies on the SE edge between two corners: boundary count 0.
        point = (1, 1)
        assert point in shape.boundary_points
        assert shape.is_erodable(point)
        assert not shape.is_sce(point)

    def test_interior_point_not_erodable(self):
        shape = hexagon(2)
        assert not shape.is_erodable(ORIGIN)

    def test_erosion_preserves_simple_connectivity(self):
        # Observation 5: removing an erodable point keeps the shape simply
        # connected.  Erode a hexagon all the way down.
        shape = hexagon(2)
        while len(shape) > 1:
            sce = shape.sce_points()
            assert sce
            shape = shape.without(sce[0])
            assert shape.is_simply_connected()

    def test_queries_for_missing_point_raise(self):
        shape = hexagon(1)
        with pytest.raises(ValueError):
            shape.is_erodable((10, 10))
        with pytest.raises(ValueError):
            shape.local_boundaries((10, 10))


class TestVirtualRings:
    def test_observation4_outer_ring_sums_to_six(self):
        for shape in (hexagon(1), hexagon(3), line_shape(6), comb(3, 3),
                      parallelogram(5, 2), random_blob(50, seed=7)):
            assert shape.outer_ring().total_count == 6

    def test_observation4_inner_rings_sum_to_minus_six(self):
        for shape in (annulus(4, 1), annulus(5, 2), hexagon_with_holes(7)):
            inner = shape.inner_rings()
            assert inner
            for ring in inner:
                assert ring.total_count == -6

    def test_number_of_rings_is_one_plus_holes(self):
        for shape in (hexagon(3), annulus(4, 1), hexagon_with_holes(7)):
            assert len(shape.virtual_rings()) == 1 + len(shape.holes)

    def test_outer_ring_first(self):
        rings = annulus(4, 1).virtual_rings()
        assert rings[0].is_outer
        assert all(not r.is_outer for r in rings[1:])

    def test_ring_points_cover_boundaries(self):
        shape = annulus(4, 1)
        assert shape.outer_ring().points == shape.outer_boundary
        inner_points = set()
        for ring in shape.inner_rings():
            inner_points |= ring.points
        assert inner_points == shape.inner_boundaries[0]

    def test_line_ring_visits_points_twice(self):
        # Every interior point of a line has two local boundaries, so the
        # single ring has 2n - 2 v-nodes.
        n = 6
        shape = line_shape(n)
        ring = shape.outer_ring()
        assert len(ring) == 2 * n - 2

    def test_hexagon_ring_length_equals_boundary(self):
        shape = hexagon(3)
        assert len(shape.outer_ring()) == shape.outer_boundary_length

    def test_clockwise_successor_common_point_unoccupied(self):
        shape = hexagon(2)
        for vnode in shape.all_vnodes():
            successor, common = shape.clockwise_successor(vnode)
            assert common not in shape
            assert successor.point in shape

    def test_successor_relation_is_cyclic(self):
        shape = random_blob(30, seed=5)
        ring = shape.outer_ring()
        # Following the successor len(ring) times returns to the start.
        current = ring.vnodes[0]
        for _ in range(len(ring)):
            current, _ = shape.clockwise_successor(current)
        assert current == ring.vnodes[0]

    def test_single_point_shape_has_no_rings(self):
        with pytest.raises(ValueError):
            Shape([ORIGIN]).virtual_rings()

    @pytest.mark.parametrize("family", sorted(SHAPE_FAMILIES))
    def test_rings_match_the_walk_oracle(self, family):
        # Same rings, same v-node order, same ring order.
        for size in range(1, 8):
            shape = make_shape(family, size, seed=size)
            assert shape.virtual_rings() == walked_virtual_rings(shape)


class TestObservation1:
    def test_area_diameter_at_most_diameter(self):
        # Observation 1 (1): D_A <= D.
        for shape in (annulus(5, 2), hexagon_with_holes(7), hexagon(3)):
            metrics = compute_metrics(shape)
            assert metrics.area_diameter <= metrics.diameter

    def test_simply_connected_n_le_quadratic_in_diameter(self):
        # Observation 1 (2): n = O(D^2); concretely n <= 1 + 3 D (D + 1) / ...
        # the loosest safe concrete form: n <= (D + 1)^2 * 3.
        for shape in (hexagon(3), parallelogram(6, 3), triangle_like()):
            metrics = compute_metrics(shape)
            assert metrics.n <= 3 * (metrics.diameter + 1) ** 2

    def test_simply_connected_outer_boundary_at_least_diameter(self):
        # Observation 1 (3): L_out >= D for simply connected shapes.
        for shape in (hexagon(3), line_shape(9), comb(4, 4), triangle_like()):
            metrics = compute_metrics(shape)
            assert metrics.l_out >= metrics.diameter
