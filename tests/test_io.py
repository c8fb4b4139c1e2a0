"""Tests for the JSON serialisation round-trips."""

import json

import pytest

from repro.amoebot.system import ParticleSystem
from repro.analysis.experiments import run_scaling_experiment
from repro.core.dle import DLEAlgorithm, verify_unique_leader
from repro.amoebot.scheduler import Scheduler
from repro.grid.generators import annulus, hexagon, random_blob
from repro.grid.shape import Shape
from repro.io import (
    load_records,
    load_shape,
    load_system,
    records_from_dicts,
    records_to_dicts,
    save_records,
    save_shape,
    save_system,
    shape_from_dict,
    shape_to_dict,
    system_from_dict,
    system_to_dict,
)


class TestShapeRoundTrip:
    @pytest.mark.parametrize("shape", [hexagon(2), annulus(4, 1),
                                       random_blob(40, seed=3),
                                       Shape([(0, 0)])],
                             ids=["hexagon", "annulus", "blob", "single"])
    def test_dict_round_trip(self, shape):
        assert shape_from_dict(shape_to_dict(shape)) == shape

    def test_file_round_trip(self, tmp_path):
        shape = annulus(3, 1)
        path = tmp_path / "shape.json"
        save_shape(shape, path)
        assert load_shape(path) == shape
        # The file really is JSON.
        assert json.loads(path.read_text())["kind"] == "shape"

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            shape_from_dict({"kind": "particle-system", "points": []})


class TestSystemRoundTrip:
    def test_contracted_system(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=4)
        clone = system_from_dict(system_to_dict(system))
        assert clone.occupied_points() == system.occupied_points()
        assert ([p.orientation for p in clone.particles()]
                == [p.orientation for p in system.particles()])

    def test_expanded_particles_survive(self):
        system = ParticleSystem.from_shape(Shape([(0, 0), (1, 0)]))
        system.expand(system.particle_at((1, 0)), (2, 0))
        clone = system_from_dict(system_to_dict(system))
        expanded = [p for p in clone.particles() if p.is_expanded]
        assert len(expanded) == 1
        assert set(expanded[0].occupied_points) == {(1, 0), (2, 0)}

    def test_memories_survive(self):
        shape = hexagon(2)
        system = ParticleSystem.from_shape(shape, orientation_seed=1)
        Scheduler(order="random", seed=1).run(DLEAlgorithm(), system)
        verify_unique_leader(system)
        clone = system_from_dict(system_to_dict(system))
        # The election outcome is preserved across the round trip.
        verify_unique_leader(clone)

    def test_file_round_trip(self, tmp_path):
        system = ParticleSystem.from_shape(annulus(3, 1), orientation_seed=2)
        path = tmp_path / "system.json"
        save_system(system, path)
        clone = load_system(path)
        assert clone.occupied_points() == system.occupied_points()

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            system_from_dict({"kind": "shape", "particles": []})


class TestRecordsRoundTrip:
    def test_dict_round_trip(self):
        records = run_scaling_experiment("dle", "hexagon", sizes=(1, 2), seed=0)
        clones = records_from_dicts(records_to_dicts(records))
        assert len(clones) == len(records)
        for original, clone in zip(records, clones):
            assert clone.algorithm == original.algorithm
            assert clone.rounds == original.rounds
            assert clone.metrics == original.metrics
            assert clone.succeeded == original.succeeded

    def test_parsed_records_share_their_strings(self):
        # JSON gives every parsed record its own copy of each string; the
        # records a warm sweep or a ledger read holds share one instead.
        records = run_scaling_experiment("dle", "hexagon", sizes=(1, 2), seed=0)
        first, second = (records_from_dicts(json.loads(json.dumps(
            records_to_dicts(records)))) for _ in range(2))
        assert first[0].family is second[1].family
        assert first[0].algorithm is second[0].algorithm
        keys = [next(iter(record.details)) for record in first + second]
        assert all(key is keys[0] for key in keys)

    def test_file_round_trip(self, tmp_path):
        records = run_scaling_experiment("obd", "hexagon", sizes=(1, 2), seed=0)
        path = tmp_path / "records.json"
        save_records(records, path)
        clones = load_records(path)
        assert [c.rounds for c in clones] == [r.rounds for r in records]
