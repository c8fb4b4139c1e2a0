"""Property-based tests (hypothesis) for the core invariants.

Random connected shapes are drawn through the seeded Eden-growth generator
(:func:`repro.grid.generators.random_blob`) so every drawn example is a valid
permitted initial configuration of the amoebot model; hypothesis then
explores sizes and seeds.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.amoebot.scheduler import Scheduler
from repro.amoebot.system import ParticleSystem
from repro.baselines.erosion import run_erosion_election
from repro.core.collect import CollectSimulator
from repro.core.dle import DLEAlgorithm, verify_unique_leader
from repro.core.obd import BoundaryCompetition, OuterBoundaryDetection
from repro.grid.coords import disk, grid_distance, ring
from repro.grid.generators import random_blob, random_holey_blob
from repro.grid.metrics import (
    bfs_distances,
    compute_metrics,
    diameter_within,
    flood_depth,
)
from repro.grid.shape import Shape

# Property tests run whole algorithm executions; keep the example counts
# modest so the suite stays fast while still exploring many configurations.
FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

points_strategy = st.tuples(st.integers(-30, 30), st.integers(-30, 30))

blob_strategy = st.builds(
    random_blob,
    n=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=10_000),
)

holey_blob_strategy = st.builds(
    random_holey_blob,
    n=st.integers(min_value=20, max_value=80),
    hole_fraction=st.sampled_from([0.1, 0.2, 0.3]),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestGridProperties:
    @FAST
    @given(a=points_strategy, b=points_strategy, c=points_strategy)
    def test_grid_distance_is_a_metric(self, a, b, c):
        assert grid_distance(a, b) >= 0
        assert (grid_distance(a, b) == 0) == (a == b)
        assert grid_distance(a, b) == grid_distance(b, a)
        assert grid_distance(a, c) <= grid_distance(a, b) + grid_distance(b, c)

    @FAST
    @given(center=points_strategy, radius=st.integers(0, 12))
    def test_ring_and_disk_sizes(self, center, radius):
        ring_points = ring(center, radius)
        disk_points = disk(center, radius)
        expected_ring = 1 if radius == 0 else 6 * radius
        assert len(ring_points) == expected_ring
        assert len(disk_points) == 1 + 3 * radius * (radius + 1)
        assert set(ring_points) <= set(disk_points)

    @FAST
    @given(shape=blob_strategy)
    def test_boundary_counts_in_range(self, shape):
        for point in shape.boundary_points:
            for boundary in shape.local_boundaries(point):
                count = len(boundary) - 2
                if len(shape) >= 2:
                    assert -1 <= count <= 3
                else:
                    assert count == 4


class TestShapeProperties:
    @FAST
    @given(shape=blob_strategy)
    def test_observation4_on_random_shapes(self, shape):
        if len(shape) < 2:
            return
        for vring in shape.virtual_rings():
            assert vring.total_count == (6 if vring.is_outer else -6)

    @FAST
    @given(shape=blob_strategy)
    def test_proposition7_on_random_shapes(self, shape):
        if len(shape) < 2 or not shape.is_simply_connected():
            return
        assert shape.sce_points()

    @FAST
    @given(shape=holey_blob_strategy)
    def test_metric_ordering(self, shape):
        metrics = compute_metrics(shape)
        assert metrics.grid_diam <= metrics.area_diameter <= metrics.diameter
        assert metrics.n <= metrics.n_area

    @FAST
    @given(shape=blob_strategy)
    def test_erosion_to_a_point_preserves_simple_connectivity(self, shape):
        # Observation 5 applied iteratively (the basis of all erosion-style
        # election algorithms).
        if not shape.is_simply_connected():
            return
        current = shape
        for _ in range(min(len(shape) - 1, 30)):
            sce = current.sce_points()
            assert sce
            current = current.without(sce[0])
            assert current.is_simply_connected()


def _brute_force_diameters(shape):
    """``(D, D_A, D_G)`` straight from the definitions: one search per
    point, and the grid distance over every pair."""
    points = shape.points
    pairwise = max((grid_distance(a, b) for a in points for b in points),
                   default=0)
    return (diameter_within(points, points),
            diameter_within(points, shape.area_points),
            pairwise)


class TestMetricOracles:
    """Fast metrics and the multi-source flood against brute force."""

    @FAST
    @given(shape=blob_strategy)
    def test_metrics_equal_brute_force_on_blobs(self, shape):
        metrics = compute_metrics(shape)
        assert ((metrics.diameter, metrics.area_diameter, metrics.grid_diam)
                == _brute_force_diameters(shape))

    @FAST
    @given(shape=holey_blob_strategy)
    def test_metrics_equal_brute_force_on_holey_blobs(self, shape):
        metrics = compute_metrics(shape)
        assert ((metrics.diameter, metrics.area_diameter, metrics.grid_diam)
                == _brute_force_diameters(shape))

    @FAST
    @given(shape=holey_blob_strategy, data=st.data())
    def test_flood_depth_equals_min_over_single_sources(self, shape, data):
        points = sorted(shape.points)
        sources = data.draw(st.lists(st.sampled_from(points), min_size=1,
                                     max_size=8, unique=True))
        per_source = [bfs_distances(s, shape.points) for s in sources]
        expected = max(min(d[p] for d in per_source) for p in points)
        assert flood_depth(sources, shape.points) == expected


class TestAlgorithmProperties:
    @SLOW
    @given(shape=blob_strategy, seed=st.integers(0, 1000))
    def test_dle_always_elects_unique_leader(self, shape, seed):
        system = ParticleSystem.from_shape(shape, orientation_seed=seed)
        algorithm = DLEAlgorithm()
        result = Scheduler(order="random", seed=seed).run(algorithm, system)
        assert result.terminated
        verify_unique_leader(system)
        metrics = compute_metrics(shape)
        assert result.rounds <= 10 * metrics.area_diameter + 6

    @SLOW
    @given(shape=holey_blob_strategy, seed=st.integers(0, 1000))
    def test_dle_handles_holes_and_collect_reconnects(self, shape, seed):
        system = ParticleSystem.from_shape(shape, orientation_seed=seed)
        algorithm = DLEAlgorithm()
        result = Scheduler(order="random", seed=seed).run(algorithm, system)
        assert result.terminated
        leader = verify_unique_leader(system)
        collect = CollectSimulator(system, leader).run()
        assert collect.connected
        assert system.is_connected()
        assert len(system) == len(shape)

    @SLOW
    @given(shape=blob_strategy, seed=st.integers(0, 1000))
    def test_erosion_succeeds_exactly_on_hole_free_shapes(self, shape, seed):
        system = ParticleSystem.from_shape(shape, orientation_seed=seed)
        outcome = run_erosion_election(system, seed=seed)
        if shape.is_simply_connected():
            assert outcome.succeeded
        # (On shapes with holes the erosion baseline may stall; that case is
        # covered deterministically in test_baselines.py.)

    @SLOW
    @given(shape=holey_blob_strategy)
    def test_obd_matches_geometric_outer_boundary(self, shape):
        system = ParticleSystem.from_shape(shape, orientation_seed=0)
        result = OuterBoundaryDetection(system).run()
        assert result.outer_boundary_points == set(shape.outer_boundary)

    @FAST
    @given(shape=blob_strategy)
    def test_boundary_competition_preserves_total(self, shape):
        if len(shape) < 2:
            return
        ring_obj = shape.outer_ring()
        counts = [v.count for v in ring_obj.vnodes]
        result = BoundaryCompetition(counts).run()
        assert result.total_count == 6
        assert sum(s.size for s in result.final_segments) == len(counts)
        assert result.num_final_segments in (1, 2, 3, 6)
