"""Seeded fault injection: crash/revive, visibility delay, shape changes.

The paper's adversary is deliberately weak — it only chooses the
activation *order* within each fair round (:mod:`repro.amoebot.adversary`).
This module implements the stronger, still fully deterministic adversary
of ROADMAP item 4: a seeded fault plan the schedulers consult at round
boundaries.  Three independent fault families:

``crash``
    A particle stops being activated for ``rounds`` rounds (or
    permanently when ``rounds=0``), modelling a stalled amoebot.  Its
    points stay occupied; a revive restores it to the engine's active
    set and conservatively re-wakes it (a spurious examination is a
    no-op by the quiescence contract, so traces stay engine-independent).

``delay``
    A particle's :meth:`~repro.amoebot.system.ParticleSystem.neighbors_of`
    reads are served from a stale snapshot refreshed only every ``max``
    rounds — the particle acts on neighbourhood information up to
    ``max - 1`` rounds old.  Writes *through* a stale neighbour proxy
    (``q[key] = value``) still reach the live particle: only visibility
    is delayed, not the write port.  Reads that bypass ``neighbors_of``
    (``occupancy_maps``, ``head_adjacent_particles``, movement
    validation) are **not** delayed; that is the documented model
    boundary — geometry is physical, memory gossip is what lags.

``shape``
    Seeded add/remove of boundary particles mid-run.  A removal takes a
    contracted boundary particle whose departure leaves the system
    connected (:func:`removal_keeps_connected`); a system DLE has already
    disconnected only loses isolated particles whose departure reconnects
    it.  An add attaches a fresh particle to a random empty point adjacent
    to the system, and the running algorithm admits it
    (:meth:`~repro.amoebot.algorithm.AmoebotAlgorithm.admit`): DLE and
    erosion start it undecided, with eligibility flags read against the
    current eligible set, like a particle at set-up.

Determinism and engine-independence: every family draws from its own
``random.Random`` stream seeded from the plan seed, and every draw
depends only on the plan state and the system state at a round boundary
— which both engines agree on (the engine-equivalence contract).  A
disabled plan injects nothing and consumes no randomness, so disabled
runs are bit-identical to runs without the fault layer.

Fault state (the family RNG streams, the crashed/delayed maps, the
captured stale views and the event counters) participates in the
checkpoint state protocol via :meth:`FaultInjector.snapshot_state` /
:meth:`FaultInjector.restore_state`, so checkpointed faulty runs resume
bit-identically (fuzzed by ``tests/test_faults.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import AbstractSet, Any, Dict, List, Optional, Tuple

from ..grid.coords import Point, neighbors, neighbors_interned
from ..grid.shape import is_connected, is_redundant
from ..state import decode_rng, encode_rng
from .particle import Particle
from .system import ParticleSystem

__all__ = [
    "DEFAULT_FAULT_CAP",
    "FaultInjector",
    "FaultSpec",
    "charged_fault_overlay",
    "removal_keeps_connected",
]

#: Default ``max_rounds`` cap applied to runs with faults enabled: a
#: permanently crashed or disconnected-by-faults run must time out in
#: bounded wall clock instead of burning the drivers' 10^6-round budget.
#: Override per plan with the ``cap=N`` clause (``cap=0`` = uncapped).
DEFAULT_FAULT_CAP = 10_000

_FAMILIES = ("crash", "delay", "shape")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed, immutable fault plan.

    Built from the compact spec-string syntax threaded through
    :class:`~repro.orchestrator.spec.RunConfig` and the CLI::

        crash:rate=0.02,rounds=30;delay:rate=0.5,max=3;shape:rate=0.01;seed=7

    Clauses are ``;``-separated; each is either a family clause
    (``crash:``/``delay:``/``shape:`` followed by ``key=value`` pairs)
    or a global ``seed=N`` / ``cap=N`` setting.  Omitted families are
    disabled.  The empty string parses to the disabled plan.
    """

    #: Per-particle, per-round crash probability (0 disables the family).
    crash_rate: float = 0.0
    #: Rounds until a crashed particle revives; 0 = permanent crash.
    crash_rounds: int = 0
    #: Fraction of particles whose neighbourhood reads are delayed.
    delay_rate: float = 0.0
    #: Staleness bound: a delayed view refreshes every ``delay_max`` rounds.
    delay_max: int = 0
    #: Per-round probability of one add/remove boundary perturbation.
    shape_rate: float = 0.0
    #: Seed of the per-family RNG streams.
    seed: int = 0
    #: ``max_rounds`` cap for faulty runs (0 = no cap).
    cap: int = DEFAULT_FAULT_CAP

    @property
    def enabled(self) -> bool:
        """True when any fault family can fire."""
        return bool(self.crash_rate or self.delay_rate or self.shape_rate)

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range parameters."""
        for name, rate in (("crash", self.crash_rate),
                           ("delay", self.delay_rate),
                           ("shape", self.shape_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} rate must be in [0, 1], got {rate}")
        if self.crash_rounds < 0:
            raise ValueError("crash rounds must be >= 0 (0 = permanent)")
        if self.delay_rate and self.delay_max < 1:
            raise ValueError("delay needs max >= 1 (the staleness bound)")
        if self.delay_max < 0 or self.cap < 0:
            raise ValueError("delay max and cap must be >= 0")

    @classmethod
    def parse(cls, text: "str | FaultSpec | None") -> "FaultSpec":
        """Parse a spec string (idempotent on specs; None/"" = disabled)."""
        if isinstance(text, FaultSpec):
            return text
        spec = cls()
        if not text:
            return spec
        for clause in str(text).split(";"):
            clause = clause.strip()
            if not clause:
                continue
            family, _, body = clause.partition(":")
            family = family.strip()
            if family in _FAMILIES and _ != "":
                spec = spec._parse_family(family, body)
            elif "=" in clause and ":" not in clause:
                key, _, value = clause.partition("=")
                key = key.strip()
                if key == "seed":
                    spec = replace(spec, seed=int(value))
                elif key == "cap":
                    spec = replace(spec, cap=int(value))
                else:
                    raise ValueError(
                        f"unknown fault setting {key!r} in {text!r}")
            else:
                raise ValueError(
                    f"cannot parse fault clause {clause!r} in {text!r} "
                    f"(families: {', '.join(_FAMILIES)}; "
                    f"globals: seed=N, cap=N)")
        spec.validate()
        return spec

    def _parse_family(self, family: str, body: str) -> "FaultSpec":
        fields: Dict[str, Any] = {}
        for pair in body.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, eq, value = pair.partition("=")
            if not eq:
                raise ValueError(
                    f"fault clause {family}:{body!r} needs key=value pairs")
            fields[key.strip()] = value.strip()
        try:
            if family == "crash":
                return replace(
                    self,
                    crash_rate=float(fields.pop("rate", self.crash_rate)),
                    crash_rounds=int(fields.pop("rounds", self.crash_rounds)),
                    **_reject_leftovers(family, fields))
            if family == "delay":
                return replace(
                    self,
                    delay_rate=float(fields.pop("rate", self.delay_rate)),
                    delay_max=int(fields.pop("max", self.delay_max or 1)),
                    **_reject_leftovers(family, fields))
            return replace(
                self,
                shape_rate=float(fields.pop("rate", self.shape_rate)),
                **_reject_leftovers(family, fields))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"bad value in fault clause {family}:{body!r}: {exc}"
            ) from exc

    def to_string(self) -> str:
        """The canonical spec string (``parse(to_string())`` round-trips)."""
        clauses: List[str] = []
        if self.crash_rate:
            clause = f"crash:rate={self.crash_rate:g}"
            if self.crash_rounds:
                clause += f",rounds={self.crash_rounds}"
            clauses.append(clause)
        if self.delay_rate:
            clauses.append(
                f"delay:rate={self.delay_rate:g},max={self.delay_max}")
        if self.shape_rate:
            clauses.append(f"shape:rate={self.shape_rate:g}")
        if self.seed:
            clauses.append(f"seed={self.seed}")
        if self.cap != DEFAULT_FAULT_CAP:
            clauses.append(f"cap={self.cap}")
        return ";".join(clauses)

    def max_rounds(self, requested: int) -> int:
        """The round budget for a faulty run: ``requested`` capped by the
        plan's ``cap`` clause (uncapped when ``cap=0`` or disabled)."""
        if not self.enabled or not self.cap:
            return requested
        return min(requested, self.cap)


def _reject_leftovers(family: str, fields: Dict[str, Any]) -> Dict[str, Any]:
    if fields:
        raise ValueError(
            f"unknown key(s) {sorted(fields)} in fault family {family!r}")
    return {}


class _StaleParticle(Particle):
    """A frozen snapshot of a neighbour, standing in for the live particle
    in a delayed particle's :meth:`neighbors_of` view.

    Reads (``get`` / ``[]`` / ``in`` / geometry) come from the snapshot;
    item-assignment writes go through to the live particle *and* the
    snapshot (the writer observes its own write within the activation).
    """

    __slots__ = ("_live",)

    def __init__(self, live: Particle) -> None:
        self.particle_id = live.particle_id
        self.head = live.head
        self.tail = live.tail
        self.orientation = live.orientation
        self.memory = dict(live.memory)
        self._live = live

    def __setitem__(self, key: str, value: Any) -> None:
        self._live.memory[key] = value
        self.memory[key] = value

    def _encode(self) -> Dict[str, Any]:
        return {"id": self.particle_id, "head": list(self.head),
                "tail": list(self.tail), "orientation": self.orientation,
                "memory": self.memory}

    @classmethod
    def _decode(cls, entry: Dict[str, Any],
                live: Particle) -> "_StaleParticle":
        proxy = cls(live)
        proxy.head = tuple(entry["head"])  # type: ignore[assignment]
        proxy.tail = tuple(entry["tail"])  # type: ignore[assignment]
        proxy.orientation = int(entry["orientation"])
        proxy.memory = dict(entry["memory"])
        return proxy


class FaultInjector:
    """Per-run mutable state of one :class:`FaultSpec`.

    The owning scheduler calls :meth:`begin_round` at every round
    boundary with an engine-hooks object exposing ``crash(pid)``,
    ``revive(pid)``, ``wake(pids)``, ``remove(pid)`` and
    ``admit(particle)``; the injector
    performs this round's revives, new crashes, shape perturbations and
    stale-view refreshes through those hooks.  All mutation of the
    injector happens here and in :meth:`restore_state`, so the whole
    object is a deterministic function of (spec, round stream, system
    states at boundaries).
    """

    def __init__(self, spec: FaultSpec) -> None:
        spec.validate()
        self.spec = spec
        # Independent, deterministically derived streams per family: the
        # crash draws never shift the shape draws and vice versa, so fault
        # families compose without aliasing each other's schedules.
        self._crash_rng = random.Random(f"{spec.seed}:crash")
        self._delay_rng = random.Random(f"{spec.seed}:delay")
        self._shape_rng = random.Random(f"{spec.seed}:shape")
        #: pid -> revive round (or -1 for a permanent crash).
        self.crashed: Dict[int, int] = {}
        #: pid -> personal refresh period (1..delay_max).
        self.delayed: Dict[int, int] = {}
        #: pid -> captured stale neighbourhood view.
        self._views: Dict[int, Tuple[Particle, ...]] = {}
        self._delay_assigned = False
        #: Event totals, published once per run by the scheduler.
        self.counters: Dict[str, int] = {
            "crashes": 0, "revives": 0, "shape_adds": 0,
            "shape_removes": 0, "view_refreshes": 0,
        }

    # -- the round-boundary hook -------------------------------------------

    def begin_round(self, round_index: int, system: ParticleSystem,
                    hooks: Any) -> None:
        """Inject this round's faults (called before the order is drawn)."""
        spec = self.spec
        if spec.crash_rate:
            self._crash_step(round_index, system, hooks)
        if spec.shape_rate:
            self._shape_step(system, hooks)
        if spec.delay_rate:
            self._delay_step(round_index, system, hooks)

    def finish(self, system: ParticleSystem) -> None:
        """Tear down: the system's reads go live again after the run."""
        system.set_stale_views(None)

    # -- crash/revive -------------------------------------------------------

    def _crash_step(self, round_index: int, system: ParticleSystem,
                    hooks: Any) -> None:
        crashed = self.crashed
        if crashed:
            due = [pid for pid, revive in crashed.items()
                   if 0 <= revive <= round_index]
            for pid in sorted(due):
                del crashed[pid]
                hooks.revive(pid)
                self.counters["revives"] += 1
        rate = self.spec.crash_rate
        rand = self._crash_rng.random
        # One draw per particle id, crashed or not: the stream position
        # depends only on the population size, never on which particles
        # happen to be down, which keeps resumed runs aligned.
        victims = [pid for pid in system._ids_snapshot()
                   if rand() < rate and pid not in crashed]
        if not victims:
            return
        revive_round = (round_index + self.spec.crash_rounds
                        if self.spec.crash_rounds else -1)
        for pid in victims:
            crashed[pid] = revive_round
            hooks.crash(pid)
            self.counters["crashes"] += 1

    # -- dynamic shape perturbation ----------------------------------------

    def _shape_step(self, system: ParticleSystem, hooks: Any) -> None:
        rng = self._shape_rng
        if rng.random() >= self.spec.shape_rate:
            return
        if rng.random() < 0.5 and len(system) > 1:
            self._shape_remove(system, hooks, rng)
        else:
            self._shape_add(system, hooks, rng)

    def _shape_add(self, system: ParticleSystem, hooks: Any,
                   rng: random.Random) -> None:
        occupied = system.occupied_points()
        candidates = sorted({u for p in occupied for u in neighbors(p)
                             if u not in occupied})
        if not candidates:
            return
        point = candidates[rng.randrange(len(candidates))]
        particle = system.add_particle(point, orientation=rng.randrange(6))
        hooks.admit(particle)
        self.counters["shape_adds"] += 1

    def _shape_remove(self, system: ParticleSystem, hooks: Any,
                      rng: random.Random) -> None:
        shape = system.shape()
        occupied = shape.points
        connected = shape.is_connected()
        boundary = sorted(shape.boundary_points)
        rng.shuffle(boundary)
        for point in boundary:
            particle = system.particle_at(point)
            if particle is None or particle.is_expanded:
                continue
            # Articulation points are rejected, so a connected system
            # stays one component.
            if not removal_keeps_connected(point, occupied, connected):
                continue
            pid = particle.particle_id
            system.remove_particle(pid)
            self.crashed.pop(pid, None)
            self.delayed.pop(pid, None)
            self._views.pop(pid, None)
            hooks.remove(pid)
            self.counters["shape_removes"] += 1
            return

    # -- visibility delay ---------------------------------------------------

    def _delay_step(self, round_index: int, system: ParticleSystem,
                    hooks: Any) -> None:
        spec = self.spec
        rand = self._delay_rng.random
        if not self._delay_assigned:
            # The delayed set is drawn once over the initial population;
            # particles added later by shape faults read live.
            for pid in system._ids_snapshot():
                if rand() < spec.delay_rate:
                    self.delayed[pid] = 1 + self._delay_rng.randrange(
                        spec.delay_max)
            self._delay_assigned = True
        if not self.delayed:
            return
        particles = system._particles
        views = self._views
        refreshed: List[int] = []
        for pid in sorted(self.delayed):
            live = particles.get(pid)
            if live is None:
                del self.delayed[pid]
                views.pop(pid, None)
                continue
            if pid in views and round_index % self.delayed[pid] != 0:
                continue
            views[pid] = tuple(_StaleParticle(q)
                               for q in system.live_neighbors_of(live))
            refreshed.append(pid)
            self.counters["view_refreshes"] += 1
        system.set_stale_views(views)
        if refreshed:
            # A refresh changes what the particle will observe, exactly
            # like a neighbourhood event: wake it so the event engine
            # re-examines it when the sweep engine would act on the new
            # view (waking an already active particle is a no-op).
            hooks.wake(refreshed)

    # -- checkpoint state protocol ------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-ready injector state for the scheduler checkpoint."""
        return {
            "spec": self.spec.to_string(),
            "rng": {
                "crash": encode_rng(self._crash_rng),
                "delay": encode_rng(self._delay_rng),
                "shape": encode_rng(self._shape_rng),
            },
            "crashed": sorted(self.crashed.items()),
            "delayed": sorted(self.delayed.items()),
            "views": {str(pid): [q._encode() for q in view]  # type: ignore[attr-defined]
                      for pid, view in sorted(self._views.items())},
            "delay_assigned": self._delay_assigned,
            "counters": dict(self.counters),
        }

    def restore_state(self, state: Dict[str, Any],
                      system: ParticleSystem) -> None:
        """Rebuild injector state from :meth:`snapshot_state` output.

        ``system`` must already be restored to the matching snapshot —
        the stale-view proxies re-bind to the live particles so delayed
        writes keep reaching them after the resume.
        """
        if state.get("spec", "") != self.spec.to_string():
            raise ValueError(
                f"checkpoint fault state was written by plan "
                f"{state.get('spec')!r}; this plan is "
                f"{self.spec.to_string()!r}")
        decode_rng(state["rng"]["crash"], self._crash_rng)
        decode_rng(state["rng"]["delay"], self._delay_rng)
        decode_rng(state["rng"]["shape"], self._shape_rng)
        self.crashed = {int(pid): int(revive)
                        for pid, revive in state["crashed"]}
        self.delayed = {int(pid): int(period)
                        for pid, period in state["delayed"]}
        self._delay_assigned = bool(state["delay_assigned"])
        self.counters = {name: int(value)
                         for name, value in state["counters"].items()}
        particles = system._particles
        views: Dict[int, Tuple[Particle, ...]] = {}
        for pid_text, entries in state["views"].items():
            pid = int(pid_text)
            view = []
            for entry in entries:
                live = particles.get(int(entry["id"]))
                if live is None:
                    continue  # the neighbour was removed by a shape fault
                view.append(_StaleParticle._decode(entry, live))
            views[pid] = tuple(view)
        self._views = views
        if views:
            system.set_stale_views(views)


def removal_keeps_connected(point: Point, occupied: AbstractSet[Point],
                            connected: bool) -> bool:
    """Whether ``occupied - {point}`` is connected, for a ``point`` of
    ``occupied``; ``connected`` says whether ``occupied`` itself is.

    Exact.  A point with an occupied neighbour cannot reconnect a
    disconnected set by leaving it, and leaves a connected set connected
    when it has one local boundary (it is redundant, Proposition 6).
    Only isolated points and points with several local boundaries run a
    BFS."""
    if any(u in occupied for u in neighbors_interned(point)):
        if not connected:
            return False
        if is_redundant(point, occupied):
            return True
    return is_connected(occupied - {point})


# ---------------------------------------------------------------------------
# Charged fault overlay for the analytically-charged randomized baseline
# ---------------------------------------------------------------------------

def charged_fault_overlay(spec: FaultSpec,
                          system: ParticleSystem) -> Dict[str, Any]:
    """Fault effects for the randomized baseline, charged analytically.

    :mod:`repro.baselines.randomized` does not schedule activations — its
    round counts are charged from the structure of the computation — so
    the fault plan is charged at the same fidelity level: every outer
    boundary particle crashes with probability ``crash_rate`` (a
    permanent crash stalls the ring traversal outright; a transient one
    charges its outage length), and each delayed boundary particle
    charges its staleness bound once per traversal.  Shape faults do not
    apply (the baseline's charged rings are fixed at start).  Returns
    ``{"extra_rounds", "stalled", "crashed", "delayed"}``.
    """
    spec.validate()
    crash_rng = random.Random(f"{spec.seed}:crash")
    delay_rng = random.Random(f"{spec.seed}:delay")
    ring = sorted(system.shape().outer_boundary)
    crashed = [p for p in ring if crash_rng.random() < spec.crash_rate] \
        if spec.crash_rate else []
    delayed = [p for p in ring if delay_rng.random() < spec.delay_rate] \
        if spec.delay_rate else []
    stalled = bool(crashed) and spec.crash_rounds == 0
    extra = (spec.crash_rounds * len(crashed)
             + spec.delay_max * len(delayed))
    return {"extra_rounds": extra, "stalled": stalled,
            "crashed": len(crashed), "delayed": len(delayed)}
