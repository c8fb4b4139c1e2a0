"""Derived and cached shapes must be indistinguishable from rebuilds.

A :class:`~repro.grid.shape.Shape` derived through single-point deltas
(``with_point`` / ``without``) and the cached snapshot behind
``ParticleSystem.shape()`` must carry exactly the connectivity, holes,
boundary and area a from-scratch ``Shape`` of the same points computes.
The hole split/merge/breach and disconnection configurations pin the
geometry; the fuzzer drives random expand/contract/handover/teleport
sequences, which must invalidate the system's cached snapshot after every
kind of move, comparing against a fresh rebuild after every step.
"""

import random

import pytest

from repro.amoebot.system import ParticleSystem
from repro.grid.coords import neighbors
from repro.grid.generators import make_shape
from repro.grid.shape import Shape

HEX = [(q, r) for q in range(-3, 4) for r in range(-3, 4)
       if abs(q + r) <= 3]


def assert_same_global_state(candidate: Shape, reference_points) -> None:
    """Compare every piece of derived global state against a rebuild."""
    fresh = Shape(reference_points)
    assert candidate.points == fresh.points
    assert candidate.is_connected() == fresh.is_connected()
    assert sorted(tuple(sorted(h)) for h in candidate.holes) == \
        sorted(tuple(sorted(h)) for h in fresh.holes)
    assert candidate.hole_points == fresh.hole_points
    assert candidate.area_points == fresh.area_points
    assert candidate.boundary_points == fresh.boundary_points
    # outer_boundary exercises point_in_outer_face over the patched
    # outer-face set and the hole list together.
    assert candidate.outer_boundary == fresh.outer_boundary


class TestShapeDeltaConstructors:
    def test_without_patches_computed_state(self):
        shape = Shape(HEX)
        shape.holes, shape.is_connected()  # force the memos
        smaller = shape.without((0, 0))
        assert_same_global_state(smaller, set(HEX) - {(0, 0)})
        # Removing an interior point opens a hole.
        assert smaller.holes == [frozenset({(0, 0)})]

    def test_with_point_fills_hole(self):
        shape = Shape(HEX).without((0, 0))
        shape.holes
        refilled = shape.with_point((0, 0))
        assert refilled.holes == []
        assert_same_global_state(refilled, set(HEX))

    def test_unrelated_points_keep_behaviour(self):
        shape = Shape(HEX)
        assert shape.without((50, 50)).points == shape.points
        assert shape.with_point((0, 0)).points == shape.points

    def test_hole_split_by_addition(self):
        # A 5x1 cavity; occupying its middle point splits it in two.
        outer = {(q, r) for q in range(-1, 7) for r in range(-1, 3)}
        cavity = {(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)}
        shape = Shape(outer - cavity)
        assert [len(h) for h in shape.holes] == [5]
        split = shape.with_point((3, 1))
        assert sorted(len(h) for h in split.holes) == [2, 2]
        assert_same_global_state(split, (outer - cavity) | {(3, 1)})

    def test_hole_merge_by_removal(self):
        outer = {(q, r) for q in range(-1, 7) for r in range(-1, 3)}
        cavity = {(1, 1), (2, 1), (4, 1), (5, 1)}  # two 2-point holes
        shape = Shape(outer - cavity)
        assert sorted(len(h) for h in shape.holes) == [2, 2]
        merged = shape.without((3, 1))
        assert [len(h) for h in merged.holes] == [5]
        assert_same_global_state(merged, outer - cavity - {(3, 1)})

    def test_breach_and_reseal_ring(self):
        # Breach an annulus: remove a wall point adjacent to the hole so
        # the hole drains into the outer face, then re-add it — the
        # re-addition is an outer-face split that must recreate the hole.
        points = set(make_shape("annulus", 3, seed=0).points)
        hole = set(Shape(points).hole_points)
        assert hole
        wall = next(p for p in sorted(points)
                    if any(u in hole for u in neighbors(p)))
        breached = Shape(points)
        breached.holes, breached.is_connected()
        breached = breached.without(wall)
        assert_same_global_state(breached, points - {wall})
        reclosed = breached.with_point(wall)
        assert_same_global_state(reclosed, points)
        assert reclosed.hole_points == frozenset(hole)

    def test_connectivity_survives_disconnection_and_repair(self):
        line = [(i, 0) for i in range(5)]
        shape = Shape(line)
        assert shape.is_connected()
        cut = shape.without((2, 0))
        assert cut.is_connected() is False
        repaired = cut.with_point((2, 0))
        assert repaired.is_connected()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family", ["hexagon", "holey"])
def test_fuzz_system_shape_tracker_matches_rebuild(family, seed):
    """Random expand / contract / handover / teleport sequences keep the
    cached ``ParticleSystem.shape()`` snapshot (connectivity, holes,
    boundary, area) identical to a from-scratch rebuild: every kind of
    move must invalidate it."""
    rng = random.Random(seed)
    system = ParticleSystem.from_shape(
        make_shape(family, 3, seed=seed), orientation_seed=seed)
    # Force the cached snapshot to carry faces + connectivity, so a
    # snapshot a move failed to invalidate would answer from stale memos.
    system.shape().holes
    system.shape().is_connected()
    for step in range(160):
        particles = system.particles()
        particle = rng.choice(particles)
        op = rng.random()
        if particle.is_expanded:
            # Sometimes hand over instead of contracting.
            contracted_neighbors = [
                q for q in system.neighbors_of(particle) if q.is_contracted
            ]
            if op < 0.3 and contracted_neighbors:
                partner = rng.choice(contracted_neighbors)
                try:
                    system.handover(partner, particle)
                except Exception:
                    system.contract_to_head(particle)
            elif op < 0.65:
                system.contract_to_head(particle)
            else:
                system.contract_to_tail(particle)
        elif op < 0.6:
            free = [u for u in neighbors(particle.head)
                    if not system.is_occupied(u)]
            if free:
                system.expand(particle, rng.choice(free))
        else:
            # Teleport within a small halo to keep the point set dense
            # enough for holes to open and close.
            q, r = particle.head
            target = (q + rng.randint(-2, 2), r + rng.randint(-2, 2))
            if not system.is_occupied(target):
                system.teleport(particle, target)
        if step % 2 == 0:
            snapshot = system.shape()
            assert_same_global_state(snapshot, system.occupied_points())
            snapshot.holes
            snapshot.is_connected()
    snapshot = system.shape()
    assert_same_global_state(snapshot, system.occupied_points())
