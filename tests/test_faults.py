"""The seeded fault-injection adversary.

Four properties anchor the layer:

* a *disabled* fault plan is bit-identical to a run without one — the
  fault hooks must be a true no-op on the hot path;
* faults are deterministic: the same plan and seed reproduce the same
  crash/delay/perturbation schedule, on either engine, with identical
  per-round traces;
* fault state checkpoints: a SIGKILLed faulty run resumed from its
  checkpoint equals the uninterrupted run, record for record;
* the survival report folds a sweep ledger into the guarantee table.
"""

import random

import pytest

from repro.amoebot.faults import (
    DEFAULT_FAULT_CAP,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    charged_fault_overlay,
    removal_keeps_connected,
)
from repro.amoebot.scheduler import make_scheduler
from repro.amoebot.system import ParticleSystem
from repro.analysis.experiments import FAULT_ALGORITHMS, run_experiment
from repro.analysis.robustness import (
    format_robustness_table,
    robustness_rows,
)
from repro.baselines.erosion import ErosionLeaderElection
from repro.core.dle import DLEAlgorithm, verify_unique_leader
from repro.grid.generators import SHAPE_FAMILIES, hexagon, make_shape
from repro.grid.shape import is_connected
from repro.io import records_to_dicts
from repro.session import Session
from repro.telemetry.names import is_known_metric


class Kill(Exception):
    """Simulated SIGKILL raised from the on_checkpoint callback."""


def _bomb(rounds, path):
    raise Kill(f"killed at round {rounds}")


# ---------------------------------------------------------------------------
# FaultSpec parsing and canonical form
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_empty_spec_is_disabled(self):
        spec = FaultSpec.parse("")
        assert not spec.enabled
        assert spec.to_string() == ""

    def test_parse_round_trips_canonically(self):
        text = "crash:rate=0.05,rounds=30;delay:rate=0.5,max=3;shape:rate=0.02;seed=7;cap=20000"
        spec = FaultSpec.parse(text)
        assert spec.crash_rate == 0.05
        assert spec.crash_rounds == 30
        assert spec.delay_rate == 0.5
        assert spec.delay_max == 3
        assert spec.shape_rate == 0.02
        assert spec.seed == 7
        assert spec.cap == 20000
        assert FaultSpec.parse(spec.to_string()) == spec

    def test_parse_is_idempotent_on_spec_instances(self):
        spec = FaultSpec.parse("crash:rate=0.1;seed=1")
        assert FaultSpec.parse(spec) is spec

    def test_fault_plan_is_an_alias(self):
        assert FaultPlan is FaultSpec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("crash:rate=0.1,typo=3")
        with pytest.raises(ValueError):
            FaultSpec.parse("quake:rate=0.1")

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("crash:rate=1.5")
        with pytest.raises(ValueError):
            FaultSpec.parse("delay:rate=-0.1")

    def test_cap_bounds_requested_rounds(self):
        enabled = FaultSpec.parse("crash:rate=0.5")
        assert enabled.max_rounds(10 ** 9) == DEFAULT_FAULT_CAP
        assert enabled.max_rounds(50) == 50
        disabled = FaultSpec.parse("")
        assert disabled.max_rounds(10 ** 9) == 10 ** 9


# ---------------------------------------------------------------------------
# Disabled plan == no plan, bit for bit
# ---------------------------------------------------------------------------

def _run_traced(shape, engine, seed, faults="", order="random",
                max_rounds=5000, algorithm=DLEAlgorithm):
    system = ParticleSystem.from_shape(shape, orientation_seed=seed)
    trace = []
    scheduler = make_scheduler(engine, order=order, seed=seed, faults=faults)
    result = scheduler.run(
        algorithm(), system, max_rounds=max_rounds,
        round_hook=lambda r, s: trace.append((r, s.snapshot())))
    injector = scheduler._injector
    return {
        "rounds": result.rounds,
        "moves": result.moves,
        "activations": result.activations,
        "terminated": result.terminated,
        "trace": trace,
        "final": sorted((p.particle_id, dict(p.memory))
                        for p in system.particles()),
        "counters": dict(injector.counters) if injector else None,
    }


class TestDisabledPlanIsIdentity:
    @pytest.mark.parametrize("engine", ["sweep", "event"])
    @pytest.mark.parametrize("order", ["random", "round_robin", "reversed"])
    def test_empty_plan_matches_no_plan(self, engine, order):
        shape = make_shape("holey", 3, seed=1)
        bare = _run_traced(shape, engine, 2, faults=None, order=order)
        empty = _run_traced(shape, engine, 2, faults="", order=order)
        assert empty == bare

    def test_zero_rate_plan_matches_no_plan(self):
        shape = hexagon(3)
        bare = _run_traced(shape, "sweep", 0, faults=None)
        zero = _run_traced(shape, "sweep", 0,
                           faults="crash:rate=0;delay:rate=0;shape:rate=0")
        assert zero == bare


# ---------------------------------------------------------------------------
# Determinism and engine equivalence under live faults
# ---------------------------------------------------------------------------

PLANS = [
    "crash:rate=0.05,rounds=10;seed=3",
    "crash:rate=0.03;seed=3",  # permanent crashes
    "delay:rate=0.5,max=3;seed=4",
    "shape:rate=0.3;seed=5",
    "crash:rate=0.04,rounds=6;delay:rate=0.3,max=2;seed=8",
]


class TestFaultyRunsAreDeterministic:
    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("engine", ["sweep", "event"])
    def test_same_plan_same_run(self, plan, engine):
        shape = hexagon(3)
        first = _run_traced(shape, engine, 1, faults=plan, max_rounds=200)
        second = _run_traced(shape, engine, 1, faults=plan, max_rounds=200)
        assert first == second

    @pytest.mark.parametrize("plan", PLANS)
    def test_sweep_and_event_agree_under_faults(self, plan):
        shape = hexagon(3)
        sweep = _run_traced(shape, "sweep", 1, faults=plan, max_rounds=300)
        event = _run_traced(shape, "event", 1, faults=plan, max_rounds=300)
        assert event["rounds"] == sweep["rounds"]
        assert event["moves"] == sweep["moves"]
        assert event["trace"] == sweep["trace"]
        assert event["final"] == sweep["final"]

    def test_different_fault_seeds_differ(self):
        shape = hexagon(3)
        a = _run_traced(shape, "sweep", 1,
                        faults="crash:rate=0.15,rounds=5;seed=1",
                        max_rounds=300)
        b = _run_traced(shape, "sweep", 1,
                        faults="crash:rate=0.15,rounds=5;seed=2",
                        max_rounds=300)
        assert a["trace"] != b["trace"]


# ---------------------------------------------------------------------------
# Per-family behaviour
# ---------------------------------------------------------------------------

class _Hooks:
    """Recording hook receiver for driving the injector directly."""

    def __init__(self):
        self.events = []

    def crash(self, pid):
        self.events.append(("crash", pid))

    def revive(self, pid):
        self.events.append(("revive", pid))

    def wake(self, pids):
        self.events.append(("wake", tuple(sorted(pids))))

    def remove(self, pid):
        self.events.append(("remove", pid))

    def admit(self, particle):
        self.events.append(("admit", particle.particle_id))


class TestCrashFamily:
    def test_crash_and_revive_fire_and_count(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        injector = FaultInjector(FaultSpec.parse("crash:rate=0.2,rounds=2;seed=1"))
        hooks = _Hooks()
        for round_index in range(30):
            injector.begin_round(round_index, system, hooks)
        injector.finish(system)
        crashes = [e for e in hooks.events if e[0] == "crash"]
        revives = [e for e in hooks.events if e[0] == "revive"]
        assert crashes and revives
        assert injector.counters["crashes"] == len(crashes)
        assert injector.counters["revives"] == len(revives)

    def test_crashed_point_stays_occupied(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        occupied_before = set(system.occupied_points())
        injector = FaultInjector(FaultSpec.parse("crash:rate=0.5;seed=1"))
        hooks = _Hooks()
        injector.begin_round(0, system, hooks)
        assert injector.crashed  # rate 0.5 over 19 particles
        assert set(system.occupied_points()) == occupied_before

    def test_permanent_crash_blocks_termination(self):
        # A permanently crashed particle never terminates, so DLE runs
        # into the fault cap instead of electing.
        shape = hexagon(2)
        run = _run_traced(shape, "sweep", 0, faults="crash:rate=0.3;seed=1;cap=60",
                          max_rounds=5000)
        assert not run["terminated"]
        assert run["rounds"] == 60

    def test_transient_crash_only_delays_election(self):
        shape = hexagon(3)
        clean = _run_traced(shape, "sweep", 1)
        faulty = _run_traced(shape, "sweep", 1,
                             faults="crash:rate=0.1,rounds=8;seed=2",
                             max_rounds=2000)
        assert faulty["terminated"]
        assert faulty["rounds"] >= clean["rounds"]


class TestDelayFamily:
    def test_stale_views_read_old_neighborhood(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        particle = system.particles()[0]
        live = system.live_neighbors_of(particle)
        frozen = tuple(live)
        system.set_stale_views({particle.particle_id: frozen})
        assert system.neighbors_of(particle) == frozen
        assert tuple(system.live_neighbors_of(particle)) == tuple(live)
        system.set_stale_views(None)
        assert tuple(system.neighbors_of(particle)) == tuple(live)

    def test_delay_counts_refreshes_and_still_elects(self):
        run = _run_traced(hexagon(3), "event", 1,
                          faults="delay:rate=0.8,max=4;seed=9", max_rounds=2000)
        assert run["terminated"]


class TestShapeFamily:
    def test_perturbation_preserves_connectivity_every_round(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        injector = FaultInjector(FaultSpec.parse("shape:rate=1.0;seed=3"))
        hooks = _Hooks()
        from repro.grid.shape import is_connected
        for round_index in range(40):
            injector.begin_round(round_index, system, hooks)
            assert is_connected(set(system.occupied_points()))
        total = (injector.counters["shape_adds"]
                 + injector.counters["shape_removes"])
        assert total > 0

    def test_articulation_chain_removals_never_cut_bridges(self):
        # Every bridge point of the chain is a cut vertex, so the
        # connectivity-preserving remove step can never fire on one.
        shape = make_shape("chain", 2, seed=0)
        system = ParticleSystem.from_shape(shape, orientation_seed=0)
        injector = FaultInjector(FaultSpec.parse("shape:rate=1.0;seed=1"))
        hooks = _Hooks()
        from repro.grid.shape import is_connected
        for round_index in range(60):
            injector.begin_round(round_index, system, hooks)
            assert is_connected(set(system.occupied_points()))


class TestAdmittedParticles:
    """A particle a shape fault adds is initialised by the running
    algorithm before anything activates it, so the run goes on to the
    end, identically on both engines."""

    @pytest.mark.parametrize("algorithm,family,size,plan", [
        (DLEAlgorithm, "holey", 2, "shape:rate=0.3;seed=5"),
        (ErosionLeaderElection, "hexagon", 3, "shape:rate=0.5;seed=2"),
    ])
    def test_added_particles_run_to_the_end(self, algorithm, family, size,
                                            plan):
        shape = make_shape(family, size)
        sweep = _run_traced(shape, "sweep", 0, faults=plan, max_rounds=500,
                            algorithm=algorithm)
        event = _run_traced(shape, "event", 0, faults=plan, max_rounds=500,
                            algorithm=algorithm)
        assert sweep["terminated"]
        assert sweep["counters"]["shape_adds"] > 0
        for key in ("rounds", "moves", "terminated", "trace", "final",
                    "counters"):
            assert event[key] == sweep[key], key

    def test_base_algorithm_refuses_to_admit(self):
        from repro.apps.spanning_tree import SpanningTreeAlgorithm
        system = ParticleSystem.from_shape(hexagon(1), orientation_seed=0)
        particle = system.add_particle((5, 5))
        with pytest.raises(NotImplementedError):
            SpanningTreeAlgorithm().admit(particle, system)


class TestRemovalRule:
    """``removal_keeps_connected`` equals a BFS of the set without the
    point, on connected and disconnected configurations."""

    @staticmethod
    def assert_matches_bfs(points, candidates):
        connected = is_connected(points)
        for point in candidates:
            assert removal_keeps_connected(point, points, connected) == \
                is_connected(points - {point}), point

    @pytest.mark.parametrize("family", sorted(SHAPE_FAMILIES))
    def test_every_boundary_point_of_every_family(self, family):
        for size in range(1, 6):
            shape = make_shape(family, size, seed=0)
            self.assert_matches_bfs(shape.points, shape.boundary_points)

    def test_two_separated_hexagons(self):
        points = hexagon(2).points | hexagon(2).translated(10, 0).points
        assert not is_connected(points)
        self.assert_matches_bfs(points, points)

    def test_isolated_point_leaving_reconnects(self):
        points = hexagon(2).points | {(10, 0)}
        assert removal_keeps_connected((10, 0), points, False)
        self.assert_matches_bfs(points, points)

    def test_chain_bridge_points(self):
        points = make_shape("chain", 2, seed=0).points
        bridges = [p for p in sorted(points)
                   if not is_connected(points - {p})]
        assert bridges
        self.assert_matches_bfs(points, points)
        # Cut at one bridge point: the rule must still agree on the two
        # halves and on the remaining bridge points.
        cut = points - {bridges[0]}
        self.assert_matches_bfs(cut, cut)


# ---------------------------------------------------------------------------
# System-level mutation primitives
# ---------------------------------------------------------------------------

class TestRemoveParticle:
    def test_remove_frees_point_and_updates_neighbors(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        boundary = system.shape().boundary_points
        victim = system.particle_at(sorted(boundary)[0])
        point = victim.head
        before = len(system)
        system.remove_particle(victim.particle_id)
        assert len(system) == before - 1
        assert not system.is_occupied(point)
        assert victim.particle_id not in system.particle_ids()


# ---------------------------------------------------------------------------
# Configs, sweeps and caches
# ---------------------------------------------------------------------------

class TestFaultSpecInConfigs:
    def test_run_config_digest_unchanged_without_faults(self):
        from repro.orchestrator.spec import RunConfig
        config = RunConfig(algorithm="dle", family="hexagon", size=3, seed=0)
        assert "faults" not in config.to_dict()

    def test_run_config_round_trips_faults(self):
        from repro.orchestrator.spec import RunConfig
        config = RunConfig(algorithm="dle", family="hexagon", size=3, seed=0,
                           faults="crash:rate=0.1;seed=1")
        config.validate()
        data = config.to_dict()
        assert data["faults"] == "crash:rate=0.1;seed=1"
        assert RunConfig.from_dict(data) == config

    def test_non_fault_algorithms_reject_plans(self):
        from repro.orchestrator.spec import RunConfig
        config = RunConfig(algorithm="obd+dle+collect", family="hexagon",
                           size=3, seed=0, faults="crash:rate=0.1")
        with pytest.raises(ValueError):
            config.validate()
        shape = make_shape("hexagon", 2, seed=0)
        with pytest.raises(ValueError):
            run_experiment("obd+dle+collect", shape, family="hexagon",
                           size=2, seed=0, faults="crash:rate=0.1")

    def test_sweep_spec_fault_axis(self):
        from repro.orchestrator.spec import SweepSpec
        spec = SweepSpec(algorithms=["dle"], families=["hexagon"],
                         sizes=[3], seeds=[0, 1],
                         faults=["", "crash:rate=0.1;seed=1"])
        configs = spec.expand()
        assert len(configs) == len(spec) == 4
        assert sorted({c.faults for c in configs}) == \
            ["", "crash:rate=0.1;seed=1"]
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_fault_algorithms_is_the_driver_subset(self):
        assert FAULT_ALGORITHMS == {"dle", "erosion", "randomized"}


# ---------------------------------------------------------------------------
# Checkpoint fuzz: restore == continue over (algorithm, family, engine)
# ---------------------------------------------------------------------------

# ≥8 (algorithm, fault-family, engine) configurations, covering all three
# fault families, both engines and both scheduler-driven fault algorithms.
FAULT_FUZZ = [
    ("dle", "hexagon", 3, 0, "sweep", "crash:rate=0.05,rounds=10;seed=3"),
    ("dle", "hexagon", 3, 1, "event", "crash:rate=0.05,rounds=10;seed=3"),
    ("dle", "holey", 3, 2, "sweep", "delay:rate=0.5,max=3;seed=4"),
    ("dle", "hexagon", 4, 0, "event", "delay:rate=0.5,max=3;seed=4"),
    ("dle", "hexagon", 3, 1, "sweep", "shape:rate=0.2;seed=5"),
    ("erosion", "hexagon", 3, 0, "event", "shape:rate=0.2;seed=5"),
    ("erosion", "hexagon", 3, 1, "sweep", "crash:rate=0.05,rounds=8;seed=6"),
    ("erosion", "hexagon", 3, 0, "event", "delay:rate=0.4,max=2;seed=7"),
    ("dle", "hexagon", 3, 2, "event",
     "crash:rate=0.04,rounds=6;delay:rate=0.3,max=2;seed=8"),
    # Shape plans that add particles: dle after the checkpoint, erosion
    # on both sides of it.
    ("dle", "holey", 1, 1, "event", "shape:rate=0.5;seed=3"),
    ("erosion", "holey", 1, 0, "sweep", "shape:rate=0.9;seed=7"),
]


@pytest.mark.parametrize("algorithm,family,size,seed,engine,faults",
                         FAULT_FUZZ)
def test_faulty_session_resume_equals_uninterrupted(tmp_path, algorithm,
                                                    family, size, seed,
                                                    engine, faults):
    config = {"algorithm": algorithm, "family": family, "size": size,
              "seed": seed, "scheduler": "random", "engine": engine,
              "faults": faults}

    reference = Session.run(dict(config))
    assert reference.resumed_round is None

    with pytest.raises(Kill):
        Session.run(dict(config), checkpoint_every=2,
                    checkpoint_dir=tmp_path, on_checkpoint=_bomb)
    files = list(tmp_path.glob("checkpoint-*.json"))
    assert len(files) == 1

    resumed = Session.run(dict(config), checkpoint_every=2,
                          checkpoint_dir=tmp_path)
    assert resumed.resumed_round is not None
    assert records_to_dicts([resumed.record]) == \
        records_to_dicts([reference.record])
    assert not files[0].exists()


def test_resume_rejects_fault_plan_mismatch(tmp_path):
    config = {"algorithm": "dle", "family": "hexagon", "size": 3, "seed": 0,
              "scheduler": "random", "engine": "sweep",
              "faults": "crash:rate=0.05,rounds=10;seed=3"}
    shape = make_shape("hexagon", 3, seed=0)
    from repro.state import CheckpointContext, run_checkpointed_stage
    path = tmp_path / "ck.json"
    system = ParticleSystem.from_shape(shape, orientation_seed=0)
    context = CheckpointContext(path, 2, config, on_checkpoint=_bomb)
    with pytest.raises(Kill):
        run_checkpointed_stage(
            context, "dle", DLEAlgorithm(), system,
            make_scheduler("sweep", order="random", seed=0,
                           faults=config["faults"]), 5000)
    system = ParticleSystem.from_shape(shape, orientation_seed=0)
    with pytest.raises(ValueError, match="written under fault plan"):
        run_checkpointed_stage(
            CheckpointContext(path, 2, config), "dle", DLEAlgorithm(),
            system,
            make_scheduler("sweep", order="random", seed=0,
                           faults="crash:rate=0.9;seed=1"), 5000)


# ---------------------------------------------------------------------------
# The charged overlay for the analytic randomized baseline
# ---------------------------------------------------------------------------

class TestChargedOverlay:
    def test_disabled_spec_charges_nothing(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        overlay = charged_fault_overlay(FaultSpec.parse(""), system)
        assert overlay["extra_rounds"] == 0
        assert not overlay["stalled"]

    def test_permanent_ring_crash_stalls(self):
        system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
        overlay = charged_fault_overlay(
            FaultSpec.parse("crash:rate=0.9;seed=1"), system)
        assert overlay["stalled"]

    def test_randomized_driver_applies_overlay(self):
        shape = make_shape("hexagon", 3, seed=0)
        clean = run_experiment("randomized", shape, family="hexagon",
                               size=3, seed=0)
        faulty = run_experiment("randomized", shape, family="hexagon",
                                size=3, seed=0,
                                faults="delay:rate=0.5,max=3;seed=2")
        assert faulty.details["fault_overlay"]["extra_rounds"] >= 0
        assert faulty.rounds >= clean.rounds


# ---------------------------------------------------------------------------
# Telemetry names
# ---------------------------------------------------------------------------

def test_fault_counters_are_declared_metrics():
    system = ParticleSystem.from_shape(hexagon(2), orientation_seed=0)
    injector = FaultInjector(FaultSpec.parse("crash:rate=0.2,rounds=2;seed=1"))
    for name in injector.counters:
        assert is_known_metric("fault." + name)


# ---------------------------------------------------------------------------
# The survival report
# ---------------------------------------------------------------------------

def _entry(digest, algorithm, faults, *, status="done", succeeded=True,
           terminated=None, rounds=10, seed=0):
    config = {"algorithm": algorithm, "family": "hexagon", "size": 3,
              "seed": seed, "scheduler": "random", "engine": "sweep"}
    if faults:
        config["faults"] = faults
    entry = {"kind": "run", "digest": digest, "config": config,
             "status": status}
    if status == "done":
        details = {}
        if terminated is not None:
            details["terminated"] = terminated
        entry["record"] = {"algorithm": algorithm, "family": "hexagon",
                           "size": 3, "seed": seed, "rounds": rounds,
                           "succeeded": succeeded, "details": details}
    else:
        entry["error"] = "boom"
    return entry


class TestRobustnessReport:
    PLAN = "crash:rate=0.1;seed=1"

    def entries(self):
        return [
            _entry("a0", "dle", "", rounds=10, seed=0),
            _entry("a1", "dle", "", rounds=12, seed=1),
            _entry("b0", "dle", self.PLAN, rounds=20, seed=0,
                   terminated=True),
            _entry("b1", "dle", self.PLAN, rounds=30, seed=1,
                   succeeded=False, terminated=True),  # safety violation
            _entry("c0", "erosion", self.PLAN, status="failed", seed=0),
        ]

    def test_cells_fold_terminations_violations_and_errors(self):
        cells = {(c.algorithm, c.faults): c
                 for c in robustness_rows(self.entries())}
        baseline = cells[("dle", "")]
        assert (baseline.runs, baseline.terminated, baseline.succeeded) == \
            (2, 2, 2)
        faulty = cells[("dle", self.PLAN)]
        assert faulty.runs == 2
        assert faulty.terminated == 2
        assert faulty.succeeded == 1
        assert faulty.violations == 1
        # pairwise inflation: 20/10 and 30/12
        assert faulty.mean_inflation == pytest.approx((2.0 + 2.5) / 2)
        failed = cells[("erosion", self.PLAN)]
        assert failed.errors == 1

    def test_dedupe_keeps_latest_entry_per_digest(self):
        entries = self.entries()
        entries.append(_entry("b0", "dle", self.PLAN, rounds=40, seed=0,
                              terminated=True))
        cells = {(c.algorithm, c.faults): c
                 for c in robustness_rows(entries)}
        faulty = cells[("dle", self.PLAN)]
        assert faulty.runs == 2  # retried digest counted once
        assert 40 in faulty.rounds and 20 not in faulty.rounds

    def test_baselines_sort_first_and_table_renders(self):
        cells = robustness_rows(self.entries())
        assert cells[0].faults == ""
        table = format_robustness_table(cells)
        assert "(none)" in table
        assert "1/2" in table  # the faulty dle success share
        assert "2.25x" in table

    def test_report_reads_a_real_ledger(self, tmp_path):
        from repro.orchestrator.pool import run_sweep
        from repro.analysis.robustness import robustness_report
        from repro.orchestrator.spec import SweepSpec
        spec = SweepSpec(algorithms=["dle"], families=["hexagon"],
                         sizes=[3], seeds=[0],
                         faults=["", "crash:rate=0.05,rounds=10;seed=3"])
        ledger = tmp_path / "ledger.jsonl"
        run_sweep(spec, ledger=ledger, progress=None)
        cells, table = robustness_report(ledger)
        assert len(cells) == 2
        assert all(c.runs == 1 for c in cells)
        faulty = [c for c in cells if c.faults][0]
        assert faulty.inflations  # paired with its fault-free twin
        assert "dle" in table


# ---------------------------------------------------------------------------
# Fault metrics surface in run records
# ---------------------------------------------------------------------------

def test_faulty_run_reports_terminated_flag():
    shape = make_shape("hexagon", 3, seed=0)
    record = run_experiment("dle", shape, family="hexagon", size=3, seed=0,
                            faults="crash:rate=0.05,rounds=10;seed=3")
    assert record.details["terminated"] is True
    assert record.succeeded
    clean = run_experiment("dle", shape, family="hexagon", size=3, seed=0)
    assert clean.details["terminated"] is True
