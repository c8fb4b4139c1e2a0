"""Tests for the strong scheduler: rounds, fairness, activation orders."""

import os
import random
import subprocess
import sys

import pytest

from repro.amoebot.algorithm import AmoebotAlgorithm
from repro.amoebot.scheduler import (
    NUMPY_MIN_POPULATION,
    Scheduler,
    _UniformKeyStream,
    run_algorithm,
)
from repro.amoebot.system import ParticleSystem
from repro.grid.generators import hexagon, line_shape


class CountdownAlgorithm(AmoebotAlgorithm):
    """Each particle decrements a counter once per activation and terminates
    at zero.  With all counters equal to ``k`` the run takes exactly ``k``
    rounds regardless of the activation order, which pins down the round
    accounting of the scheduler."""

    name = "countdown"

    def __init__(self, start: int):
        self.start = start
        self.activation_log = []

    def setup(self, system):
        for particle in system.particles():
            particle["count"] = self.start

    def activate(self, particle, system):
        self.activation_log.append(particle.particle_id)
        if particle["count"] > 0:
            particle["count"] -= 1

    def is_terminated(self, particle, system):
        return particle["count"] == 0


class NeverTerminates(AmoebotAlgorithm):
    name = "never"

    def setup(self, system):
        pass

    def activate(self, particle, system):
        pass

    def is_terminated(self, particle, system):
        return False


class TestRounds:
    @pytest.mark.parametrize("order", ["round_robin", "random", "reversed"])
    def test_round_count_independent_of_order(self, order):
        system = ParticleSystem.from_shape(hexagon(1))
        result = run_algorithm(CountdownAlgorithm(4), system, order=order, seed=1)
        assert result.terminated
        assert result.rounds == 4

    def test_activations_count(self):
        system = ParticleSystem.from_shape(hexagon(1))
        result = run_algorithm(CountdownAlgorithm(3), system)
        # Every particle is activated exactly once per round while not final.
        assert result.activations == 3 * len(system)

    def test_zero_rounds_when_already_terminated(self):
        system = ParticleSystem.from_shape(line_shape(3))
        result = run_algorithm(CountdownAlgorithm(0), system)
        assert result.rounds == 0
        assert result.activations == 0
        assert result.terminated

    def test_max_rounds_reached_reports_not_terminated(self):
        system = ParticleSystem.from_shape(line_shape(3))
        result = run_algorithm(NeverTerminates(), system, max_rounds=7)
        assert not result.terminated
        assert result.rounds == 7

    def test_moves_counter_starts_at_zero(self):
        system = ParticleSystem.from_shape(line_shape(3))
        result = run_algorithm(CountdownAlgorithm(2), system)
        assert result.moves == 0


class TestOrders:
    def test_round_robin_activates_in_id_order(self):
        system = ParticleSystem.from_shape(line_shape(4))
        algorithm = CountdownAlgorithm(1)
        run_algorithm(algorithm, system, order="round_robin")
        assert algorithm.activation_log == system.particle_ids()

    def test_reversed_order(self):
        system = ParticleSystem.from_shape(line_shape(4))
        algorithm = CountdownAlgorithm(1)
        run_algorithm(algorithm, system, order="reversed")
        assert algorithm.activation_log == list(reversed(system.particle_ids()))

    def test_random_order_is_seed_deterministic(self):
        logs = []
        for _ in range(2):
            system = ParticleSystem.from_shape(line_shape(6))
            algorithm = CountdownAlgorithm(2)
            run_algorithm(algorithm, system, order="random", seed=42)
            logs.append(algorithm.activation_log)
        assert logs[0] == logs[1]

    def test_random_order_differs_across_seeds(self):
        logs = []
        for seed in (1, 2):
            system = ParticleSystem.from_shape(line_shape(8))
            algorithm = CountdownAlgorithm(2)
            run_algorithm(algorithm, system, order="random", seed=seed)
            logs.append(algorithm.activation_log)
        assert logs[0] != logs[1]

    def test_custom_order_policy(self):
        def rotate(round_index, ids, rng):
            shift = round_index % len(ids)
            return ids[shift:] + ids[:shift]

        system = ParticleSystem.from_shape(line_shape(5))
        result = run_algorithm(CountdownAlgorithm(3), system, order=rotate)
        assert result.terminated
        assert result.rounds == 3

    def test_invalid_order_name(self):
        with pytest.raises(ValueError):
            Scheduler(order="chaotic")

    def test_order_policy_must_cover_all_particles(self):
        def broken(round_index, ids, rng):
            return ids[:-1]

        system = ParticleSystem.from_shape(line_shape(4))
        with pytest.raises(ValueError):
            run_algorithm(CountdownAlgorithm(1), system, order=broken)

    def test_round_hook_called_each_round(self):
        system = ParticleSystem.from_shape(line_shape(3))
        seen = []
        Scheduler(order="round_robin").run(
            CountdownAlgorithm(3), system,
            round_hook=lambda r, s: seen.append(r),
        )
        assert seen == [1, 2, 3]


def key_stream_population(backend):
    """A population on the ``backend`` side of ``NUMPY_MIN_POPULATION``;
    skips the numpy side when numpy is not installed."""
    if backend == "numpy":
        pytest.importorskip("numpy")
        return NUMPY_MIN_POPULATION
    return NUMPY_MIN_POPULATION - 1


class TestUniformKeyStream:
    """The bulk key stream must be float-identical to the stdlib draws on
    both backends — this is what makes traces independent of the
    population size and of whether numpy is installed.  These run the
    stdlib backend; the subclass below reruns them on numpy."""

    backend = "stdlib"

    def test_population_picks_backend(self):
        stream = _UniformKeyStream(random.Random(0),
                                   key_stream_population(self.backend))
        assert stream.backend == self.backend

    def test_matches_stdlib_stream(self):
        population = key_stream_population(self.backend)
        for seed in (0, 1, 7, 12345):
            reference = random.Random(seed)
            expected = [reference.random() for _ in range(700)]
            stream = _UniformKeyStream(random.Random(seed), population)
            got = list(stream.draw(250)) + list(stream.draw(450))
            assert got == expected

    def test_raw_draw_matches_converted_draw(self):
        population = key_stream_population(self.backend)
        a = _UniformKeyStream(random.Random(3), population)
        b = _UniformKeyStream(random.Random(3), population)
        assert list(a.draw(100)) == [float(x) for x in b.draw_raw(100)]


class TestUniformKeyStreamOnNumpy(TestUniformKeyStream):
    backend = "numpy"


def test_large_population_without_numpy_uses_stdlib(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # import raises
    stream = _UniformKeyStream(random.Random(0), NUMPY_MIN_POPULATION)
    assert stream.backend == "stdlib"
    reference = random.Random(0)
    assert stream.draw(3) == [reference.random() for _ in range(3)]


def test_small_sweep_never_imports_numpy():
    """Building systems and drawing keys below ``NUMPY_MIN_POPULATION``
    must not load numpy: a fresh interpreter runs the four Table 1
    algorithms on hexagon/2 and holey/2 and reports ``sys.modules``."""
    code = (
        "import sys\n"
        "from repro.orchestrator import run_sweep\n"
        "from repro.orchestrator.spec import table1_spec\n"
        "spec = table1_spec(sizes=[2], families=['hexagon', 'holey'])\n"
        "counts = run_sweep(spec, jobs=1).counts()\n"
        "assert counts['executed'] == 8 and counts['failed'] == 0, counts\n"
        "print('numpy' in sys.modules)\n"
    )
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
