"""Tests for the shape metrics (n, D, D_A, D_G, L_out, ...)."""

import pytest

from repro.grid.coords import grid_distance
from repro.grid.generators import (
    SHAPE_FAMILIES,
    annulus,
    comb,
    hexagon,
    hexagon_with_holes,
    line_shape,
    make_shape,
    random_blob,
)
from repro.grid.metrics import (
    ShapeMetrics,
    bfs_distances,
    compute_metrics,
    diameter_within,
    eccentricity_within,
    flood_depth,
    grid_diameter,
    grid_eccentricity,
)
from repro.grid.shape import Shape
from repro.telemetry import MetricsRegistry, use_registry


def pairwise_grid_diameter(points):
    """Brute-force ``D_G``: the largest grid distance over all pairs."""
    ordered = sorted(points)
    return max((grid_distance(a, b)
                for i, a in enumerate(ordered) for b in ordered[i + 1:]),
               default=0)


class TestBFS:
    def test_bfs_distances_on_line(self):
        shape = line_shape(6)
        points = shape.points
        start = (0, 0)
        distances = bfs_distances(start, points)
        assert distances[(5, 0)] == 5
        assert distances[start] == 0

    def test_bfs_source_must_be_allowed(self):
        with pytest.raises(ValueError):
            bfs_distances((9, 9), {(0, 0)})

    def test_bfs_with_targets_contains_targets(self):
        shape = hexagon(3)
        targets = {(3, 0), (-3, 0)}
        distances = bfs_distances((0, 0), shape.points, targets=targets)
        for t in targets:
            assert distances[t] == 3

    def test_eccentricity_within(self):
        shape = line_shape(5)
        assert eccentricity_within((0, 0), shape.points, shape.points) == 4
        assert eccentricity_within((2, 0), shape.points, shape.points) == 2

    def test_eccentricity_unreachable_raises(self):
        points = {(0, 0), (5, 5)}
        with pytest.raises(ValueError):
            eccentricity_within((0, 0), points, points)

    def test_diameter_within_line(self):
        shape = line_shape(7)
        assert diameter_within(shape.points, shape.points) == 6

    def test_diameter_empty_raises(self):
        with pytest.raises(ValueError):
            diameter_within(set(), set())


class TestFloodDepth:
    def test_single_source_is_eccentricity(self):
        shape = line_shape(7)
        assert flood_depth([(0, 0)], shape.points) == 6
        assert flood_depth([(3, 0)], shape.points) == 3

    def test_sources_flood_together(self):
        shape = line_shape(9)
        assert flood_depth([(0, 0), (8, 0)], shape.points) == 4

    def test_whole_set_as_sources_is_zero(self):
        shape = hexagon(2)
        assert flood_depth(shape.points, shape.points) == 0

    def test_outer_boundary_flood_of_hexagon(self):
        shape = hexagon(4)
        assert flood_depth(shape.outer_boundary, shape.points) == 4

    def test_unreachable_point_raises(self):
        with pytest.raises(ValueError, match="unreachable"):
            flood_depth([(0, 0)], {(0, 0), (5, 5)})

    def test_source_outside_allowed_raises(self):
        with pytest.raises(ValueError):
            flood_depth([(9, 9)], {(0, 0)})

    def test_no_source_raises(self):
        with pytest.raises(ValueError):
            flood_depth([], {(0, 0)})


class TestGridMetrics:
    def test_grid_eccentricity(self):
        shape = hexagon(3)
        assert grid_eccentricity((0, 0), shape.points) == 3
        assert grid_eccentricity((3, 0), shape.points) == 6

    def test_grid_eccentricity_matches_pairwise(self):
        shape = random_blob(60, seed=4)
        for source in [(0, 0), (7, -3), (-12, 5)]:
            assert grid_eccentricity(source, shape.points) == max(
                grid_distance(source, p) for p in shape.points)

    def test_grid_diameter_hexagon(self):
        assert grid_diameter(hexagon(4).points) == 8

    def test_grid_diameter_matches_pairwise(self):
        for shape in (comb(4, 3), random_blob(80, seed=2), annulus(5, 3)):
            assert (grid_diameter(shape.points)
                    == pairwise_grid_diameter(shape.points))

    def test_grid_diameter_single_point(self):
        assert grid_diameter({(0, 0)}) == 0

    def test_grid_diameter_empty_raises(self):
        with pytest.raises(ValueError):
            grid_diameter(set())


class TestComputeMetrics:
    @pytest.mark.parametrize("radius", [1, 2, 4])
    def test_hexagon_metrics(self, radius):
        metrics = compute_metrics(hexagon(radius))
        assert metrics.n == 1 + 3 * radius * (radius + 1)
        assert metrics.diameter == 2 * radius
        assert metrics.area_diameter == 2 * radius
        assert metrics.grid_diam == 2 * radius
        assert metrics.l_out == 6 * radius
        assert metrics.num_holes == 0

    def test_line_metrics(self):
        metrics = compute_metrics(line_shape(10))
        assert metrics.n == 10
        assert metrics.diameter == 9
        assert metrics.grid_diam == 9
        assert metrics.l_out == 10

    def test_annulus_metric_ordering(self):
        # For any shape: D_G <= D_A <= D (paths through the grid are at least
        # as short as paths through the area, which are at least as short as
        # paths through the shape).
        metrics = compute_metrics(annulus(7, 5))
        assert metrics.grid_diam <= metrics.area_diameter <= metrics.diameter
        assert metrics.area_diameter < metrics.diameter

    def test_holey_hexagon_counts_holes(self):
        metrics = compute_metrics(hexagon_with_holes(7))
        assert metrics.num_holes >= 1
        assert metrics.n_area > metrics.n

    def test_blob_ordering_invariants(self):
        metrics = compute_metrics(random_blob(90, seed=11))
        assert metrics.grid_diam <= metrics.area_diameter <= metrics.diameter
        assert metrics.l_max >= metrics.l_out
        assert metrics.n_area >= metrics.n

    def test_as_dict_keys(self):
        metrics = compute_metrics(hexagon(1))
        assert set(metrics.as_dict()) == {
            "n", "n_A", "D", "D_A", "D_G", "L_out", "L_max", "holes",
        }

    def test_disconnected_shape_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(Shape([(0, 0), (10, 10)]))

    def test_single_point_metrics(self):
        metrics = compute_metrics(Shape([(3, 3)]))
        assert metrics.n == 1
        assert metrics.diameter == 0
        assert metrics.l_out == 1


class TestExactAgainstBruteForce:
    """The fast metrics must equal the brute-force definitions exactly."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", sorted(SHAPE_FAMILIES))
    def test_family_metrics_equal_oracle(self, family, size, seed):
        shape = make_shape(family, size, seed)
        points, area = shape.points, shape.area_points
        metrics = compute_metrics(shape)
        assert metrics.diameter == diameter_within(points, points)
        assert metrics.area_diameter == diameter_within(points, area)
        assert metrics.grid_diam == pairwise_grid_diameter(points)
        assert metrics.n == len(points)
        assert metrics.n_area == len(area)

    # Shapes on which an off-by-one in BoundingDiameters' pruning (an
    # upper bound of ``ecc + d - 1``, or keeping only candidates with
    # ``upper > best + 1``) returns a diameter one too small.
    @pytest.mark.parametrize("shape", [
        make_shape("blob", 2, seed=3),
        make_shape("holey_blob", 1, seed=7),
        Shape([(-1, -1), (-1, 0), (0, 0), (1, -1), (2, -1)]),
    ], ids=["blob-2-3", "holey_blob-1-7", "path-5"])
    def test_pruning_boundary_cases_equal_oracle(self, shape):
        points, area = shape.points, shape.area_points
        metrics = compute_metrics(shape)
        assert metrics.diameter == diameter_within(points, points)
        assert metrics.area_diameter == diameter_within(points, area)


def test_large_hexagon_needs_few_searches():
    """Guards against a quadratic regression without a timer: a side-64
    hexagon (12,481 points) is settled by a handful of searches."""
    registry = MetricsRegistry()
    with use_registry(registry):
        metrics = compute_metrics(make_shape("hexagon", 64))
    assert metrics.diameter == metrics.area_diameter == 128
    assert metrics.grid_diam == 128
    assert registry.counter("metrics.bfs_runs").value <= 8
