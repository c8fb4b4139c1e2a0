"""Engine equivalence: the event-driven scheduler must reproduce the legacy
sweep exactly — same per-round configurations, same final memories, same
round counts — across algorithms, activation-order policies and seeds.

This is the property the quiescence protocol promises: parking a particle
the algorithm declares quiescent and re-waking it on dirty-neighborhood
events is a pure performance transformation, never a semantic one.
"""

import pytest

from repro.amoebot import scheduler as scheduler_module
from repro.amoebot.algorithm import STATUS_KEY, AmoebotAlgorithm
from repro.amoebot.scheduler import (
    ENGINES,
    EventDrivenScheduler,
    Scheduler,
    SequentialScheduler,
    make_scheduler,
    run_algorithm,
)
from repro.amoebot.system import ParticleSystem
from repro.analysis.experiments import run_experiment
from repro.baselines.erosion import ErosionLeaderElection
from repro.core.dle import DLEAlgorithm
from repro.grid.generators import hexagon, make_shape

ORDERS = ["round_robin", "random", "reversed"]
SEEDS = [0, 1, 2]


def _run_traced(algorithm_factory, shape, engine, order, seed,
                max_rounds=5000):
    """Run one algorithm and capture a full per-round execution trace."""
    system = ParticleSystem.from_shape(shape, orientation_seed=seed)
    algorithm = algorithm_factory()
    trace = []

    def hook(round_index, sys_):
        trace.append((round_index, sys_.snapshot()))

    result = make_scheduler(engine, order=order, seed=seed).run(
        algorithm, system, max_rounds=max_rounds, round_hook=hook)
    final = sorted(
        (p.particle_id, p.get(STATUS_KEY), bool(p.get("terminated")))
        for p in system.particles()
    )
    return {
        "rounds": result.rounds,
        "moves": result.moves,
        "terminated": result.terminated,
        "trace": trace,
        "final": final,
    }


class TestDLEEquivalence:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", ["hexagon", "holey"])
    def test_identical_traces_and_rounds(self, order, seed, family):
        shape = make_shape(family, 3, seed=seed)
        sweep = _run_traced(DLEAlgorithm, shape, "sweep", order, seed)
        event = _run_traced(DLEAlgorithm, shape, "event", order, seed)
        assert event["rounds"] == sweep["rounds"]
        assert event["moves"] == sweep["moves"]
        assert event["trace"] == sweep["trace"]
        assert event["final"] == sweep["final"]

    def test_event_engine_skips_activations(self):
        """The speedup is real: far fewer activations on a big shape."""
        shape = hexagon(6)
        system_sweep = ParticleSystem.from_shape(shape, orientation_seed=0)
        system_event = ParticleSystem.from_shape(shape, orientation_seed=0)
        sweep = SequentialScheduler(order="random", seed=0).run(
            DLEAlgorithm(), system_sweep)
        event = EventDrivenScheduler(order="random", seed=0).run(
            DLEAlgorithm(), system_event)
        assert event.rounds == sweep.rounds
        assert event.activations < sweep.activations / 2
        assert event.skipped > 0
        assert sweep.skipped == 0


class TestErosionEquivalence:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hexagon_success_path(self, order, seed):
        shape = hexagon(3)
        sweep = _run_traced(ErosionLeaderElection, shape, "sweep", order, seed)
        event = _run_traced(ErosionLeaderElection, shape, "event", order, seed)
        assert event == sweep

    @pytest.mark.parametrize("order", ORDERS)
    def test_holey_stall_path(self, order):
        """The stall detector (a round with no changes) must fire at the
        same round even when every particle is parked."""
        shape = make_shape("holey", 3, seed=1)
        sweep = _run_traced(ErosionLeaderElection, shape, "sweep", order, 0)
        event = _run_traced(ErosionLeaderElection, shape, "event", order, 0)
        assert event == sweep


class TestConservativeDefault:
    """Algorithms without quiescence declarations run unmodified."""

    class Countdown(AmoebotAlgorithm):
        name = "countdown"

        def setup(self, system):
            for particle in system.particles():
                particle["count"] = 3

        def activate(self, particle, system):
            if particle["count"] > 0:
                particle["count"] -= 1

        def is_terminated(self, particle, system):
            return particle["count"] == 0

    @pytest.mark.parametrize("order", ORDERS)
    def test_default_is_quiescent_means_no_parking(self, order):
        shape = hexagon(2)
        results = {}
        for engine in ENGINES:
            system = ParticleSystem.from_shape(shape)
            results[engine] = make_scheduler(engine, order=order, seed=3).run(
                self.Countdown(), system)
        sweep, event = results["sweep"], results["event"]
        assert event.rounds == sweep.rounds == 3
        # Nothing declares quiescence, so nothing is parked and both
        # engines do identical work.
        assert event.activations == sweep.activations
        assert event.skipped == 0

    def test_truthy_flag_return_keeps_conservative_wake(self):
        """A legacy activate() returning a truthy non-list (e.g. 1) must
        keep the conservative wake, not be mistaken for a wake list."""

        class Flagger(AmoebotAlgorithm):
            name = "flagger"

            def setup(self, system):
                for p in system.particles():
                    p["count"] = 2

            def activate(self, particle, system):
                if particle["count"] > 0:
                    particle["count"] -= 1
                    return 1  # legacy truthy "I acted" flag
                return False

            def is_terminated(self, particle, system):
                return particle["count"] == 0

            def is_quiescent(self, particle, system):
                return particle["count"] == 0

        results = {}
        for engine in ENGINES:
            system = ParticleSystem.from_shape(hexagon(2))
            r = make_scheduler(engine, order="random", seed=0).run(
                Flagger(), system)
            results[engine] = (r.rounds, r.terminated)
        assert results["sweep"] == results["event"]
        assert results["sweep"][1]

    def test_custom_policy_named_random_uses_plain_path(self):
        """A user-supplied policy whose __name__ collides with the
        built-in 'random' must not reach for the bulk key stream."""

        def random(round_index, ids, rng):
            return sorted(ids, key=lambda pid: rng.random())

        shape = make_shape("hexagon", 2, seed=0)
        sweep = _run_traced(DLEAlgorithm, shape, "sweep", random, 0)
        event = _run_traced(DLEAlgorithm, shape, "event", random, 0)
        assert event == sweep

    def test_custom_order_policy_works_on_event_engine(self):
        def rotate(round_index, ids, rng):
            shift = round_index % len(ids)
            return ids[shift:] + ids[:shift]

        shape = make_shape("holey", 3, seed=1)
        sweep = _run_traced(DLEAlgorithm, shape, "sweep", rotate, 0)
        event = _run_traced(DLEAlgorithm, shape, "event", rotate, 0)
        assert event == sweep

    def test_broken_custom_policy_still_validated(self):
        def broken(round_index, ids, rng):
            return ids[:-1]

        system = ParticleSystem.from_shape(hexagon(2))
        with pytest.raises(ValueError):
            EventDrivenScheduler(order=broken).run(DLEAlgorithm(), system)


class TestKeyStreamBackends:
    @pytest.mark.parametrize("engine", ["sweep", "event"])
    def test_dle_identical_on_both_backends(self, engine, monkeypatch):
        """A run at NUMPY_MIN_POPULATION or above draws its ``random``
        order keys from numpy; forcing the stdlib stream on the same run
        must not change a single round."""
        pytest.importorskip("numpy")
        shape = hexagon(37)
        assert len(shape) >= scheduler_module.NUMPY_MIN_POPULATION

        def run():
            system = ParticleSystem.from_shape(shape, orientation_seed=1)
            digests = []
            result = make_scheduler(engine, order="random", seed=1).run(
                DLEAlgorithm(), system, round_hook=lambda r, s: digests.append(
                    hash(tuple(sorted(s.snapshot().items())))))
            return result.rounds, result.moves, result.activations, digests

        on_numpy = run()
        monkeypatch.setattr(scheduler_module, "NUMPY_MIN_POPULATION",
                            len(shape) + 1)
        assert run() == on_numpy


class TestPipelinesAcrossEngines:
    @pytest.mark.parametrize("algorithm", ["dle", "dle+collect",
                                           "obd+dle+collect", "erosion"])
    def test_records_match(self, algorithm):
        shape = make_shape("hexagon", 3, seed=0)
        sweep = run_experiment(algorithm, shape, family="hexagon", size=3,
                               seed=0, engine="sweep")
        event = run_experiment(algorithm, shape, family="hexagon", size=3,
                               seed=0, engine="event")
        assert event.rounds == sweep.rounds
        assert event.succeeded == sweep.succeeded


class TestEngineSelection:
    def test_scheduler_alias_is_the_sweep(self):
        assert Scheduler is SequentialScheduler
        assert Scheduler.engine == "sweep"

    def test_make_scheduler_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            make_scheduler("warp")

    def test_run_algorithm_engine_parameter(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        result = run_algorithm(DLEAlgorithm(), system, order="round_robin",
                               seed=0, engine="event")
        assert result.terminated
        assert result.engine == "event"

    def test_result_records_engine(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        result = run_algorithm(DLEAlgorithm(), system, seed=0)
        assert result.engine == "sweep"

    def test_phase_simulators_declare_quiescence(self):
        """OBD and Collect are analytic phase simulators: their explicit
        declaration marks every particle vacuously quiescent."""
        from repro.core.collect import CollectSimulator
        from repro.core.obd import OuterBoundaryDetection

        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        particle = system.particles()[0]
        obd = OuterBoundaryDetection(system)
        assert obd.is_quiescent(particle, system)
        run_algorithm(DLEAlgorithm(), system, order="round_robin")
        from repro.core.dle import verify_unique_leader

        leader = verify_unique_leader(system)
        collect = CollectSimulator(system, leader)
        assert collect.is_quiescent(leader, system)


class TestMidRunGrowth:
    """Particles added while the run executes join the schedule next round
    on both engines (a mid-round addition has no slot in the current
    round's order)."""

    class SpawnOnce(AmoebotAlgorithm):
        name = "spawn-once"

        def setup(self, system):
            self.spawned = False
            for particle in system.particles():
                particle["count"] = 2

        def activate(self, particle, system):
            if not self.spawned:
                self.spawned = True
                free = None
                from repro.grid.coords import neighbor

                for d in range(6):
                    candidate = neighbor(particle.head, d)
                    if not system.is_occupied(candidate):
                        free = candidate
                        break
                spawned = system.add_particle(free)
                spawned["count"] = 2
            if particle.get("count", 0) > 0:
                particle["count"] -= 1

        def is_terminated(self, particle, system):
            return particle.get("count", 0) == 0

    @pytest.mark.parametrize("order", ORDERS)
    def test_add_particle_mid_round(self, order):
        results = {}
        for engine in ENGINES:
            system = ParticleSystem.from_shape(hexagon(1))
            result = make_scheduler(engine, order=order, seed=5).run(
                self.SpawnOnce(), system, max_rounds=50)
            results[engine] = (result.rounds, result.terminated, len(system))
        assert results["event"] == results["sweep"]
        assert results["sweep"][1]  # terminated
        assert results["sweep"][2] == 8  # hexagon(1) has 7 + 1 spawned
