"""Tests for the shape generators used by the benchmark workloads."""

import random

import pytest

from repro.grid.coords import grid_distance, neighbors, neighbors_interned
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
    random_connected,
    random_holey_blob,
    spiral,
    triangle,
)
from repro.grid.shape import is_connected


# ---------------------------------------------------------------------------
# Oracles: the random generators as plain rescans.  Every step re-sorts the
# frontier and recounts neighbours (and every punch rescans every point), so
# each draw provably sees the sorted candidate list; the generators keep
# those lists sorted incrementally and must build the same shapes.
# ---------------------------------------------------------------------------

def rescan_random_blob(n, seed=0, center=(0, 0)):
    rng = random.Random(seed)
    points = {center}
    frontier = set(neighbors_interned(center))
    while len(points) < n:
        candidate = rng.choice(sorted(frontier))
        points.add(candidate)
        frontier.discard(candidate)
        for u in neighbors_interned(candidate):
            if u not in points:
                frontier.add(u)
    return frozenset(points)


def rescan_random_connected(n, hole_density=0.1, seed=0, center=(0, 0)):
    rng = random.Random(seed)
    points = {center}
    frontier = set(neighbors_interned(center))
    holes = set()

    def grow_one():
        candidates = sorted(frontier - holes)
        compact = [c for c in candidates
                   if len(points.intersection(neighbors_interned(c))) >= 2]
        candidate = rng.choice(compact or candidates)
        points.add(candidate)
        frontier.discard(candidate)
        for u in neighbors_interned(candidate):
            if u not in points:
                frontier.add(u)

    while len(points) < n:
        grow_one()
    target_holes = int(round(hole_density * n))
    attempts = 0
    while len(holes) < target_holes and attempts < 20 * max(1, target_holes):
        attempts += 1
        interior = [p for p in sorted(points)
                    if points.issuperset(neighbors_interned(p))]
        if not interior:
            break
        hole = rng.choice(interior)
        points.discard(hole)
        holes.add(hole)
        grow_one()
    return frozenset(points)


def rescan_random_holey_blob(n, hole_fraction=0.15, seed=0, center=(0, 0)):
    """``random_holey_blob`` with a connectivity check before every
    removal, which the generator drops because it cannot fail."""
    rng = random.Random(seed)
    target_total = max(n, int(round(n / max(1e-9, 1.0 - hole_fraction))))
    points = set(rescan_random_blob(target_total, seed=seed ^ 0x5BD1,
                                    center=center))
    removable_budget = target_total - n
    interior = [p for p in sorted(points)
                if all(u in points for u in neighbors(p))]
    rng.shuffle(interior)
    removed = 0
    for candidate in interior:
        if removed >= removable_budget:
            break
        if candidate not in points:
            continue
        if not all(u in points for u in neighbors(candidate)):
            continue
        trial = points - {candidate}
        if is_connected(trial):
            points = trial
            removed += 1
    return frozenset(points)


class TestHexagonFamily:
    @pytest.mark.parametrize("radius", [0, 1, 2, 5])
    def test_hexagon_size(self, radius):
        assert len(hexagon(radius)) == 1 + 3 * radius * (radius + 1)

    def test_hexagon_connected_no_holes(self):
        shape = hexagon(4)
        assert shape.is_connected()
        assert shape.holes == []

    def test_hexagon_negative_radius(self):
        with pytest.raises(ValueError):
            hexagon(-1)

    @pytest.mark.parametrize("side", [1, 2, 4])
    def test_triangle_size(self, side):
        assert len(triangle(side)) == side * (side + 1) // 2

    def test_triangle_connected(self):
        assert triangle(5).is_connected()


class TestRectilinearFamilies:
    @pytest.mark.parametrize("w,h", [(1, 1), (3, 2), (5, 5)])
    def test_parallelogram_size(self, w, h):
        assert len(parallelogram(w, h)) == w * h

    def test_parallelogram_connected_simply(self):
        assert parallelogram(6, 4).is_simply_connected()

    def test_parallelogram_invalid(self):
        with pytest.raises(ValueError):
            parallelogram(0, 3)

    @pytest.mark.parametrize("length", [1, 2, 10])
    def test_line_size(self, length):
        assert len(line_shape(length)) == length

    def test_line_diameter_equals_length_minus_one(self):
        from repro.grid.metrics import compute_metrics
        assert compute_metrics(line_shape(8)).diameter == 7

    def test_comb_connected_and_thin(self):
        shape = comb(teeth=4, tooth_length=5)
        assert shape.is_connected()
        assert shape.is_simply_connected()
        # Every comb point is a boundary point.
        assert shape.boundary_points == shape.points

    def test_comb_invalid(self):
        with pytest.raises(ValueError):
            comb(0, 3)


class TestRandomBlobs:
    @pytest.mark.parametrize("n", [1, 5, 40, 150])
    def test_blob_exact_size(self, n):
        assert len(random_blob(n, seed=0)) == n

    def test_blob_connected(self):
        assert random_blob(120, seed=3).is_connected()

    def test_blob_deterministic_per_seed(self):
        assert random_blob(60, seed=4).points == random_blob(60, seed=4).points

    def test_blob_varies_with_seed(self):
        assert random_blob(60, seed=1).points != random_blob(60, seed=2).points

    def test_blob_invalid_size(self):
        with pytest.raises(ValueError):
            random_blob(0)

    def test_holey_blob_connected_with_target_size(self):
        shape = random_holey_blob(100, hole_fraction=0.2, seed=5)
        assert shape.is_connected()
        assert len(shape) >= 100

    def test_holey_blob_often_has_holes(self):
        # With a decent hole fraction at least one of a few seeds produces a
        # hole (each removed interior point is a hole or enlarges one).
        assert any(
            len(random_holey_blob(120, hole_fraction=0.2, seed=s).holes) > 0
            for s in range(4)
        )

    def test_holey_blob_invalid_params(self):
        with pytest.raises(ValueError):
            random_holey_blob(3)
        with pytest.raises(ValueError):
            random_holey_blob(50, hole_fraction=0.95)


class TestRescanOracles:
    @pytest.mark.parametrize("size", range(1, 11))
    def test_random_blob_matches_rescan(self, size):
        n = 3 * size * size + 1  # the blob family's particle count
        for seed in range(20):
            assert random_blob(n, seed=seed).points == \
                rescan_random_blob(n, seed=seed)

    @pytest.mark.parametrize("size", range(1, 11))
    @pytest.mark.parametrize("hole_fraction", [0.15, 0.4])
    def test_random_holey_blob_matches_rescan(self, size, hole_fraction):
        n = 3 * size * size + 10  # the holey_blob family's particle count
        for seed in range(20):
            assert random_holey_blob(n, hole_fraction=hole_fraction,
                                     seed=seed).points == \
                rescan_random_holey_blob(n, hole_fraction=hole_fraction,
                                         seed=seed)

    @pytest.mark.parametrize("size", range(1, 11))
    @pytest.mark.parametrize("density", [0.0, 0.08, 0.2])
    def test_random_connected_matches_rescan(self, size, density):
        n = 3 * size * size + 7  # the random_connected family's count
        for seed in range(20):
            assert random_connected(n, hole_density=density,
                                    seed=seed).points == \
                rescan_random_connected(n, hole_density=density, seed=seed)


class TestHoleyFamilies:
    def test_hexagon_with_holes_connected(self):
        shape = hexagon_with_holes(7)
        assert shape.is_connected()
        assert len(shape.holes) >= 1

    def test_hexagon_with_holes_too_small(self):
        with pytest.raises(ValueError):
            hexagon_with_holes(2)

    @pytest.mark.parametrize("outer,inner", [(3, 1), (5, 2), (6, 4)])
    def test_annulus_structure(self, outer, inner):
        shape = annulus(outer, inner)
        assert shape.is_connected()
        assert len(shape.holes) == 1
        assert len(shape) == (1 + 3 * outer * (outer + 1)) - (1 + 3 * inner * (inner + 1))

    def test_annulus_area_diameter_smaller_than_diameter(self):
        # The regime motivating the paper's O(D_A) bound: thin annuli.
        from repro.grid.metrics import compute_metrics
        metrics = compute_metrics(annulus(7, 5))
        assert metrics.area_diameter < metrics.diameter

    def test_annulus_invalid(self):
        with pytest.raises(ValueError):
            annulus(3, 3)

    def test_spiral_connected_thin(self):
        shape = spiral(6, 3)
        assert shape.is_connected()
        assert shape.boundary_points == shape.points

    def test_spiral_invalid(self):
        with pytest.raises(ValueError):
            spiral(0, 1)


class TestFamilyRegistry:
    @pytest.mark.parametrize("family", sorted(SHAPE_FAMILIES))
    def test_every_family_builds_connected_shapes(self, family):
        shape = make_shape(family, 2, seed=1)
        assert shape.is_connected()
        assert len(shape) >= 2

    @pytest.mark.parametrize("family", sorted(SHAPE_FAMILIES))
    def test_families_grow_with_size(self, family):
        small = make_shape(family, 2, seed=1)
        large = make_shape(family, 4, seed=1)
        assert len(large) > len(small)

    def test_holey_families_have_holes(self):
        for family in ("holey", "annulus"):
            shape = make_shape(family, 2, seed=0)
            assert len(shape.holes) >= 1

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_shape("dodecahedron", 2)
