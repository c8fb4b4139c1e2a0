"""Unit tests for the ParticleSystem movement and occupancy bookkeeping."""

import pytest

from repro.amoebot.system import IllegalMoveError, ParticleSystem
from repro.grid.coords import neighbor
from repro.grid.generators import hexagon, line_shape
from repro.grid.shape import Shape

ORIGIN = (0, 0)


def small_system():
    system = ParticleSystem()
    a = system.add_particle(ORIGIN)
    b = system.add_particle((1, 0))
    return system, a, b


class TestConstruction:
    def test_add_particle(self):
        system = ParticleSystem()
        p = system.add_particle((2, 2), orientation=3)
        assert len(system) == 1
        assert system.particle_at((2, 2)) is p
        assert system.is_occupied((2, 2))

    def test_add_particle_on_occupied_point(self):
        system, _, _ = small_system()
        with pytest.raises(IllegalMoveError):
            system.add_particle(ORIGIN)

    def test_from_shape(self):
        shape = hexagon(2)
        system = ParticleSystem.from_shape(shape)
        assert len(system) == len(shape)
        assert system.occupied_points() == shape.points
        assert system.all_contracted()

    def test_from_shape_orientation_seed_deterministic(self):
        shape = hexagon(1)
        a = ParticleSystem.from_shape(shape, orientation_seed=5)
        b = ParticleSystem.from_shape(shape, orientation_seed=5)
        assert ([p.orientation for p in a.particles()]
                == [p.orientation for p in b.particles()])

    def test_from_shape_without_seed_uses_zero_orientation(self):
        system = ParticleSystem.from_shape(hexagon(1))
        assert all(p.orientation == 0 for p in system.particles())

    def test_shape_roundtrip(self):
        shape = line_shape(5)
        system = ParticleSystem.from_shape(shape)
        assert system.shape() == shape


class TestInspection:
    def test_particles_sorted_by_id(self):
        system, a, b = small_system()
        assert [p.particle_id for p in system.particles()] == [a.particle_id,
                                                               b.particle_id]

    def test_neighbors_of(self):
        system, a, b = small_system()
        c = system.add_particle((5, 5))
        assert system.neighbors_of(a) == (b,)
        assert system.neighbors_of(c) == ()
        assert system.neighbor_ids(a) == (b.particle_id,)

    def test_neighbors_of_expanded_particle(self):
        system, a, b = small_system()
        system.expand(b, (2, 0))
        c = system.add_particle((3, 0))
        # c is adjacent to b's head only; a is adjacent to b's tail only.
        assert set(system.neighbors_of(b)) == {a, c}
        assert b in system.neighbors_of(c)

    def test_neighbor_particle(self):
        system, a, b = small_system()
        assert system.neighbor_particle(ORIGIN, 0) is b
        assert system.neighbor_particle(ORIGIN, 3) is None

    def test_is_connected(self):
        system, _, _ = small_system()
        assert system.is_connected()
        system.add_particle((10, 10))
        assert not system.is_connected()


class TestExpansionContraction:
    def test_expand_updates_occupancy(self):
        system, a, _ = small_system()
        target = neighbor(ORIGIN, 4)
        system.expand(a, target)
        assert a.is_expanded
        assert a.head == target
        assert a.tail == ORIGIN
        assert system.particle_at(target) is a
        assert system.particle_at(ORIGIN) is a
        assert system.move_count == 1

    def test_expand_into_occupied_point_fails(self):
        system, a, _ = small_system()
        with pytest.raises(IllegalMoveError):
            system.expand(a, (1, 0))

    def test_expand_non_adjacent_fails(self):
        system, a, _ = small_system()
        with pytest.raises(ValueError):
            system.expand(a, (4, 4))

    def test_expand_already_expanded_fails(self):
        system, a, _ = small_system()
        system.expand(a, neighbor(ORIGIN, 4))
        with pytest.raises(IllegalMoveError):
            system.expand(a, neighbor(ORIGIN, 5))

    def test_expand_toward(self):
        system, a, _ = small_system()
        target = system.expand_toward(a, 2)
        assert target == neighbor(ORIGIN, 2)
        assert a.head == target

    def test_contract_to_head(self):
        system, a, _ = small_system()
        target = neighbor(ORIGIN, 4)
        system.expand(a, target)
        system.contract_to_head(a)
        assert a.is_contracted
        assert a.head == target
        assert not system.is_occupied(ORIGIN)

    def test_contract_to_tail(self):
        system, a, _ = small_system()
        target = neighbor(ORIGIN, 4)
        system.expand(a, target)
        system.contract_to_tail(a)
        assert a.is_contracted
        assert a.head == ORIGIN
        assert not system.is_occupied(target)

    def test_contract_contracted_fails(self):
        system, a, _ = small_system()
        with pytest.raises(IllegalMoveError):
            system.contract_to_head(a)


class TestHandover:
    def test_handover_into_tail(self):
        system, a, b = small_system()
        system.expand(b, (2, 0))           # b occupies (1,0) tail, (2,0) head
        system.handover(a, b)              # a expands into (1,0)
        assert a.is_expanded
        assert a.head == (1, 0)
        assert a.tail == ORIGIN
        assert b.is_contracted
        assert b.head == (2, 0)
        assert system.particle_at((1, 0)) is a

    def test_handover_requires_contracted_first(self):
        system, a, b = small_system()
        system.expand(a, neighbor(ORIGIN, 4))
        system.expand(b, (2, 0))
        with pytest.raises(IllegalMoveError):
            system.handover(a, b)

    def test_handover_requires_expanded_second(self):
        system, a, b = small_system()
        with pytest.raises(IllegalMoveError):
            system.handover(a, b)

    def test_handover_non_adjacent_fails(self):
        system = ParticleSystem()
        a = system.add_particle(ORIGIN)
        b = system.add_particle((3, 0))
        system.expand(b, (4, 0))
        with pytest.raises(ValueError):
            system.handover(a, b, into=(3, 0))

    def test_handover_explicit_point_not_occupied_by_expanded(self):
        system, a, b = small_system()
        system.expand(b, (2, 0))
        with pytest.raises(IllegalMoveError):
            system.handover(a, b, into=(5, 5))


class TestBulkOperations:
    def test_teleport(self):
        system, a, _ = small_system()
        system.teleport(a, (7, 7))
        assert a.head == (7, 7)
        assert not system.is_occupied(ORIGIN)
        assert system.is_occupied((7, 7))

    def test_teleport_onto_occupied_fails(self):
        system, a, _ = small_system()
        with pytest.raises(IllegalMoveError):
            system.teleport(a, (1, 0))

    def test_teleport_expanded_fails(self):
        system, a, _ = small_system()
        system.expand(a, neighbor(ORIGIN, 4))
        with pytest.raises(IllegalMoveError):
            system.teleport(a, (9, 9))

    def test_bulk_relocate_swap(self):
        system, a, b = small_system()
        system.bulk_relocate({a.particle_id: (1, 0), b.particle_id: ORIGIN})
        assert system.particle_at((1, 0)) is a
        assert system.particle_at(ORIGIN) is b

    def test_bulk_relocate_collision_fails(self):
        system, a, b = small_system()
        with pytest.raises(IllegalMoveError):
            system.bulk_relocate({a.particle_id: (5, 5), b.particle_id: (5, 5)})

    def test_bulk_relocate_onto_unmoved_particle_fails(self):
        system, a, b = small_system()
        with pytest.raises(IllegalMoveError):
            system.bulk_relocate({a.particle_id: (1, 0)})

    def test_snapshot(self):
        system, a, b = small_system()
        snap = system.snapshot()
        assert snap[a.particle_id] == (ORIGIN, ORIGIN)
        assert snap[b.particle_id] == ((1, 0), (1, 0))


def _fresh_neighbor_lists(system):
    """Reference neighbour computation, bypassing the cached index."""
    result = {}
    for particle in system.particles():
        seen = []
        for origin in particle.occupied_points:
            for point in neighbor_points(origin):
                other = system.particle_at(point)
                if other is None or other is particle:
                    continue
                if other.particle_id not in seen:
                    seen.append(other.particle_id)
        result[particle.particle_id] = seen
    return result


def neighbor_points(origin):
    return [neighbor(origin, d) for d in range(6)]


class TestNeighborCache:
    """The cached neighbor index must track every movement operation."""

    def _assert_cache_consistent(self, system):
        expected = _fresh_neighbor_lists(system)
        for particle in system.particles():
            cached = [q.particle_id for q in system.neighbors_of(particle)]
            assert cached == expected[particle.particle_id], (
                f"stale neighbour cache for particle {particle.particle_id}"
            )

    def test_cache_returns_same_result_twice(self):
        system = ParticleSystem.from_shape(hexagon(2))
        for particle in system.particles():
            first = [q.particle_id for q in system.neighbors_of(particle)]
            second = [q.particle_id for q in system.neighbors_of(particle)]
            assert first == second

    def test_invalidated_by_expand(self):
        system = ParticleSystem.from_shape(line_shape(3))
        self._assert_cache_consistent(system)  # populate the cache
        p = system.particle_at((0, 0))
        system.expand(p, (0, 1))
        self._assert_cache_consistent(system)

    def test_invalidated_by_contract_to_head(self):
        system = ParticleSystem.from_shape(line_shape(3))
        self._assert_cache_consistent(system)
        p = system.particle_at((0, 0))
        system.expand(p, (0, 1))
        self._assert_cache_consistent(system)
        system.contract_to_head(p)
        self._assert_cache_consistent(system)

    def test_invalidated_by_contract_to_tail(self):
        system = ParticleSystem.from_shape(line_shape(3))
        self._assert_cache_consistent(system)
        p = system.particle_at((0, 0))
        system.expand(p, (0, 1))
        system.contract_to_tail(p)
        self._assert_cache_consistent(system)

    def test_invalidated_by_handover(self):
        system, a, b = small_system()
        c = system.add_particle((2, 0))
        self._assert_cache_consistent(system)
        system.expand(a, (0, 1))
        self._assert_cache_consistent(system)
        # b (contracted) performs a handover with a (expanded): b expands
        # into a's tail while a contracts.
        system.handover(b, a)
        self._assert_cache_consistent(system)

    def test_invalidated_by_teleport(self):
        system = ParticleSystem.from_shape(line_shape(4))
        self._assert_cache_consistent(system)
        p = system.particle_at((0, 0))
        system.teleport(p, (0, 5))
        self._assert_cache_consistent(system)

    def test_invalidated_by_bulk_relocate(self):
        system = ParticleSystem.from_shape(line_shape(4))
        self._assert_cache_consistent(system)
        ids = system.particle_ids()
        system.bulk_relocate({ids[0]: (0, 7), ids[1]: (1, 7)})
        self._assert_cache_consistent(system)

    def test_invalidated_by_add_particle(self):
        system = ParticleSystem.from_shape(line_shape(2))
        self._assert_cache_consistent(system)
        system.add_particle((2, 0))
        self._assert_cache_consistent(system)

    def test_neighbor_ids_matches_neighbors_of(self):
        system = ParticleSystem.from_shape(hexagon(2))
        for particle in system.particles():
            ids = list(system.neighbor_ids(particle))
            assert ids == [q.particle_id for q in system.neighbors_of(particle)]


class TestChangeEvents:
    def test_every_movement_op_publishes_an_event(self):
        system = ParticleSystem.from_shape(line_shape(3))
        events = []
        system.add_change_listener(
            lambda points, ids: events.append((set(points), set(ids))))
        p = system.particle_at((0, 0))

        system.expand(p, (0, 1))
        assert events and (0, 1) in events[-1][0]
        system.contract_to_tail(p)
        assert (0, 1) in events[-1][0]
        system.teleport(p, (0, 5))
        assert {(0, 0), (0, 5)} <= events[-1][0]
        count_before = len(events)
        system.bulk_relocate({p.particle_id: (0, 9)})
        assert len(events) == count_before + 1
        system.add_particle((5, 5))
        assert (5, 5) in events[-1][0]

    def test_affected_ids_cover_the_neighbourhood(self):
        system, a, b = small_system()
        events = []
        system.add_change_listener(
            lambda points, ids: events.append(frozenset(ids)))
        # a expands away from b; b is adjacent to the vacated/occupied area
        # and must be reported as affected.
        system.expand(a, (0, 1))
        assert a.particle_id in events[-1]
        assert b.particle_id in events[-1]

    def test_remove_listener(self):
        system, a, _ = small_system()
        events = []
        listener = system.add_change_listener(
            lambda points, ids: events.append(points))
        system.remove_change_listener(listener)
        system.expand(a, (0, 1))
        assert events == []
        # Removing twice is a no-op.
        system.remove_change_listener(listener)

    def test_shape_cache_tracks_occupancy_version(self):
        system = ParticleSystem.from_shape(line_shape(3))
        first = system.shape()
        assert system.shape() is first  # cached while nothing moves
        p = system.particle_at((0, 0))
        system.expand(p, (0, 1))
        second = system.shape()
        assert second is not first
        assert (0, 1) in second.points


class TestOrientationStream:
    """from_shape's orientation draws must match the stdlib stream."""

    def test_matches_stdlib_randrange(self):
        import random as _random

        from repro.amoebot.system import _draw_orientations

        for seed in (0, 1, 7, 4242):
            reference = _random.Random(seed)
            expected = [reference.randrange(6) for _ in range(1500)]
            assert _draw_orientations(seed, 1500) == expected

    def test_orientations_applied_in_id_order(self):
        import random as _random

        from repro.grid.generators import hexagon

        shape = hexagon(2)
        system = ParticleSystem.from_shape(shape, orientation_seed=9)
        reference = _random.Random(9)
        expected = [reference.randrange(6) for _ in range(len(system))]
        assert [p.orientation for p in system.particles()] == expected
