"""Tests for the Table 1 baselines (erosion-only and randomized election)."""

import pytest

from repro.amoebot.scheduler import make_scheduler
from repro.amoebot.system import ParticleSystem
from repro.baselines.erosion import (
    ErosionLeaderElection,
    run_erosion_election,
)
from repro.baselines.randomized import (
    RandomizedBoundaryElection,
    run_randomized_election,
)
from repro.core.dle import DLEAlgorithm, verify_unique_leader
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
from repro.grid.shape import Shape

HOLE_FREE = {
    "hexagon2": hexagon(2),
    "hexagon4": hexagon(4),
    "line9": line_shape(9),
    "parallelogram": parallelogram(5, 3),
    "comb": comb(4, 3),
    "spiral": spiral(4, 3),
    "pair": Shape([(0, 0), (1, 0)]),
}

HOLEY = {
    "annulus": annulus(5, 2),
    "holey_hexagon": hexagon_with_holes(7),
    "punctured": hexagon(3).without((0, 0)),
}


class TestErosionBaseline:
    @pytest.mark.parametrize("name", sorted(HOLE_FREE))
    def test_succeeds_on_hole_free_shapes(self, name):
        system = ParticleSystem.from_shape(HOLE_FREE[name], orientation_seed=1)
        outcome = run_erosion_election(system, seed=1)
        assert outcome.succeeded
        assert outcome.num_leaders == 1
        assert not outcome.stalled

    @pytest.mark.parametrize("name", sorted(HOLEY))
    def test_fails_on_shapes_with_holes(self, name):
        # The documented restriction of the erosion family ([22], [27]): they
        # require hole-free initial shapes.  On holey shapes our erosion run
        # must not produce a (unique-leader, all-followers) outcome.
        system = ParticleSystem.from_shape(HOLEY[name], orientation_seed=1)
        outcome = run_erosion_election(system, seed=1)
        assert not outcome.succeeded

    @pytest.mark.parametrize("order", ["round_robin", "random", "reversed"])
    def test_scheduler_independence_on_hexagon(self, order):
        system = ParticleSystem.from_shape(hexagon(3), orientation_seed=0)
        outcome = run_erosion_election(system, order=order, seed=5)
        assert outcome.succeeded

    def test_no_particle_ever_moves(self):
        system = ParticleSystem.from_shape(hexagon(3), orientation_seed=2)
        before = system.snapshot()
        run_erosion_election(system, seed=2)
        assert system.snapshot() == before

    def test_rounds_at_most_linear_in_n(self):
        shape = hexagon(4)
        system = ParticleSystem.from_shape(shape)
        outcome = run_erosion_election(system)
        assert outcome.succeeded
        assert outcome.rounds <= len(shape) + 2

    def test_rounds_reported_even_on_failure(self):
        system = ParticleSystem.from_shape(HOLEY["annulus"])
        outcome = run_erosion_election(system)
        assert outcome.rounds > 0

    def test_single_particle(self):
        system = ParticleSystem.from_shape(Shape([(0, 0)]))
        outcome = run_erosion_election(system)
        assert outcome.succeeded
        assert outcome.leader_point == (0, 0)

    def test_requires_connected_shape(self):
        system = ParticleSystem.from_shape(Shape([(0, 0), (5, 5)]))
        with pytest.raises(ValueError):
            ErosionLeaderElection().setup(system)


#: Erosion outcomes on random order, seed 0, as the baseline produced them
#: before it ran on DLE's SCE-election code: ``(family, size, shape seed,
#: fault plan) -> (rounds, stalled, leaders, leader point)``.  The shape
#: plans remove particles whose points stay eligible; expanding into them
#: (DLE's rule), or a stall rule that misses a second leader's election,
#: breaks these.
PINNED_EROSION = [
    pytest.param(("holey", 3, 1, ""), (9, True, 0, None), id="holey3"),
    pytest.param(("hexagon", 1, 0, "shape:rate=0.9;seed=7"),
                 (4, False, 2, None), id="hexagon1-shape"),
    pytest.param(("hexagon", 2, 0, "shape:rate=0.9;seed=7"),
                 (6, False, 1, (-1, -2)), id="hexagon2-shape"),
    pytest.param(("holey", 2, 0, "shape:rate=0.5;seed=3"),
                 (14, True, 2, None), id="holey2-shape"),
]

#: Families whose shapes can be hole-free (the property test below skips
#: the shapes that still have holes).
HOLE_FREE_CAPABLE = sorted(set(SHAPE_FAMILIES) - {"annulus", "holey"})


class TestErosionIsTheSCEElection:
    """The baseline is DLE's SCE election with the occupied points
    eligible, no expansion and a stall rule."""

    @pytest.mark.parametrize("engine", ["sweep", "event"])
    @pytest.mark.parametrize("case,expected", PINNED_EROSION)
    def test_pinned_outcomes(self, case, expected, engine):
        family, size, shape_seed, plan = case
        system = ParticleSystem.from_shape(
            make_shape(family, size, seed=shape_seed), orientation_seed=0)
        outcome = run_erosion_election(system, order="random", seed=0,
                                       engine=engine, faults=plan)
        assert (outcome.rounds, outcome.stalled, outcome.num_leaders,
                outcome.leader_point) == expected
        assert system.move_count == 0

    @pytest.mark.parametrize("family", HOLE_FREE_CAPABLE)
    def test_equals_dle_on_hole_free_shapes(self, family):
        # On a hole-free shape the area is the occupied set, so DLE never
        # finds an empty eligible point: both runs erode the same points
        # in the same rounds and elect the same leader.
        checked = 0
        for size in (1, 2, 3, 5, 8):
            for seed in range(3):
                shape = make_shape(family, size, seed=seed)
                if shape.area_points != shape.points:
                    continue
                for order in ("random", "round_robin", "reversed"):
                    for engine in ("sweep", "event"):
                        system = ParticleSystem.from_shape(
                            shape, orientation_seed=seed)
                        dle = make_scheduler(engine, order=order,
                                             seed=seed).run(DLEAlgorithm(),
                                                            system)
                        leader = verify_unique_leader(system).head
                        outcome = run_erosion_election(
                            ParticleSystem.from_shape(
                                shape, orientation_seed=seed),
                            order=order, seed=seed, engine=engine)
                        assert dle.moves == 0
                        assert outcome.succeeded
                        assert (outcome.rounds, outcome.leader_point) \
                            == (dle.rounds, leader)
                        checked += 1
        assert checked

    def test_is_not_a_dle_instance(self):
        # Tools that attribute scheduler runs to DLE by isinstance must
        # not count the baseline's runs.
        assert not isinstance(ErosionLeaderElection(), DLEAlgorithm)


class TestRandomizedBaseline:
    @pytest.mark.parametrize("name", sorted({**HOLE_FREE, **HOLEY}))
    def test_elects_leader_on_outer_boundary(self, name):
        shape = {**HOLE_FREE, **HOLEY}[name]
        system = ParticleSystem.from_shape(shape, orientation_seed=1)
        outcome = run_randomized_election(system, seed=1)
        assert outcome.succeeded
        assert outcome.leader_point in shape.outer_boundary

    def test_deterministic_for_fixed_seed(self):
        shape = hexagon(3)
        outcomes = [
            run_randomized_election(ParticleSystem.from_shape(shape), seed=7)
            for _ in range(2)
        ]
        assert outcomes[0].rounds == outcomes[1].rounds
        assert outcomes[0].leader_point == outcomes[1].leader_point

    def test_leader_varies_with_seed(self):
        shape = hexagon(4)
        leaders = {
            run_randomized_election(ParticleSystem.from_shape(shape), seed=s).leader_point
            for s in range(6)
        }
        assert len(leaders) > 1

    def test_rounds_linear_in_lout_plus_d(self):
        shape = hexagon(5)
        metrics = compute_metrics(shape)
        system = ParticleSystem.from_shape(shape)
        outcome = run_randomized_election(system, seed=3)
        assert outcome.rounds <= 10 * (metrics.l_out + metrics.diameter) + 10

    def test_rounds_composition(self):
        system = ParticleSystem.from_shape(hexagon(3))
        outcome = run_randomized_election(system, seed=2)
        assert outcome.rounds == outcome.ring_rounds + outcome.flood_rounds

    def test_single_particle(self):
        system = ParticleSystem.from_shape(Shape([(0, 0)]))
        outcome = run_randomized_election(system)
        assert outcome.succeeded
        assert outcome.leader_point == (0, 0)

    def test_rejects_disconnected(self):
        system = ParticleSystem.from_shape(Shape([(0, 0), (9, 9)]))
        with pytest.raises(ValueError):
            run_randomized_election(system)

    def test_per_ring_statistics_cover_all_boundaries(self):
        shape = HOLEY["holey_hexagon"]
        system = ParticleSystem.from_shape(shape)
        outcome = run_randomized_election(system, seed=4)
        assert len(outcome.per_ring) == 1 + len(shape.holes)
