"""The algorithm interface executed by the scheduler.

An amoebot algorithm is defined by three hooks:

* :meth:`AmoebotAlgorithm.setup` — initialise the memory of every particle
  from the initial configuration (the paper's "Initialization" blocks);
* :meth:`AmoebotAlgorithm.activate` — one atomic activation of one particle:
  read neighbour memories, compute, write memories, optionally perform a
  single movement operation;
* :meth:`AmoebotAlgorithm.is_terminated` — whether the particle has reached a
  final state (a state in which an activation does nothing).

Only information available to the particle may be used inside
``activate``: its own memory, the memories of neighbouring particles, which
adjacent points are occupied, and port translations.  Global information
(the full shape, particle ids, grid coordinates) must not influence
decisions; it may only be used for instrumentation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

from .particle import Particle
from .system import ParticleSystem

__all__ = ["AmoebotAlgorithm", "STATUS_KEY",
           "STATUS_UNDECIDED", "STATUS_LEADER", "STATUS_FOLLOWER",
           "TERMINATED", "QUIESCENT", "is_sce_flag_arc"]

#: Sentinel an activation may return to declare, in one step, that it
#: changed nothing a neighbour observes **and** that the activated particle
#: has just reached a final state.  Algorithms that return it from every
#: terminating activation can set :attr:`AmoebotAlgorithm.
#: reports_termination` and spare the engines one ``is_terminated`` poll
#: per examination.
TERMINATED = object()

#: Sentinel an activation may return to declare that it was a no-op *and*
#: will remain one until the particle is woken (the same promise as
#: :meth:`AmoebotAlgorithm.is_quiescent`, evaluated during the activation
#: itself).  Algorithms that return it from every quiescent activation can
#: set :attr:`AmoebotAlgorithm.reports_quiescence`; the event engine then
#: parks on the sentinel instead of running the separate ``is_quiescent``
#: pre-check per examination.  The sweep engine treats it as a plain no-op.
QUIESCENT = object()

#: Memory key conventionally used for the leader-election output variable.
STATUS_KEY = "status"
STATUS_UNDECIDED = "undecided"
STATUS_LEADER = "leader"
STATUS_FOLLOWER = "follower"


def is_sce_flag_arc(flags) -> bool:
    """Strictly-convex-and-erodable (SCE) test on a cyclic 6-flag array.

    The flagged entries must form a single contiguous cyclic arc of size
    1-3.  The test is rotation invariant, so it gives the same answer on
    port-indexed and direction-indexed eligibility arrays — the SCE
    election behind Algorithm DLE and the erosion baseline applies it
    directly to the port-indexed flags, skipping the port translation only
    the expansion step needs.
    """
    if not 1 <= flags.count(True) <= 3:
        return False
    starts = 0
    prev = flags[5]
    for flag in flags:
        if flag and not prev:
            starts += 1
        prev = flag
    return starts == 1


class AmoebotAlgorithm(ABC):
    """Base class for algorithms executed on a :class:`ParticleSystem`."""

    #: Human readable algorithm name (used in experiment reports).
    name: str = "amoebot-algorithm"

    #: Opt-in fast path for both engines: when True, the algorithm promises
    #: that a particle only ever reaches a final state during its own
    #: activation, and that the activation returns :data:`TERMINATED` when
    #: it does.  The engines then stop polling :meth:`is_terminated` before
    #: every activation and retire particles exactly when the sentinel is
    #: returned.  (Global termination — :meth:`has_terminated` — is still
    #: polled once per round, so stall-style endings keep working.)
    reports_termination: bool = False

    #: Companion opt-in to :data:`QUIESCENT`: when True, the algorithm
    #: promises that every activation that is (and will remain) a no-op
    #: returns the :data:`QUIESCENT` sentinel.  The event engine then
    #: skips the :meth:`is_quiescent` pre-check entirely — the activation
    #: itself is the quiescence test — and parks on the sentinel.  The
    #: extra activations this implies are no-ops by definition, so traces
    #: are unchanged (the sweep performs them anyway).
    reports_quiescence: bool = False

    #: Opt-out for the event engine's movement wakes: set to False when a
    #: movement event whose dirty points are all *occupied afterwards* (an
    #: expansion, or a particle added next to a parked one) can never end a
    #: parked particle's quiescence.  Algorithm DLE qualifies — a parked
    #: undecided particle waits on its own flags, and a parked decided one
    #: waits for an undecided neighbour to decide or leave; gaining a
    #: neighbour changes neither.  Unsound for algorithms that use
    #: handovers (the dirty point stays occupied but changes owner) or
    #: whose quiescence reads adjacent occupancy directly.
    occupancy_gain_wakes: bool = True

    @abstractmethod
    def setup(self, system: ParticleSystem) -> None:
        """Initialise particle memories from the initial configuration."""

    @abstractmethod
    def activate(self, particle: Particle, system: ParticleSystem) -> object:
        """Perform one atomic activation of ``particle``.

        The return value is an optional *visibility hint* for the
        event-driven engine:

        * exactly ``False`` declares that the activation changed nothing a
          neighbour can observe — no movement performed beyond what the
          system's dirty-neighborhood events already report, and no write
          to any memory a neighbour reads.  The engine then skips the
          conservative "wake all neighbours" step.
        * a list or tuple of :class:`Particle` objects declares
          *precisely* which particles observed a change (beyond what the
          movement events already report): the engine wakes exactly
          those.  An algorithm returning a wake list promises it covers
          every particle whose quiescence this activation can end.
        * the :data:`TERMINATED` sentinel declares "nothing visible
          changed and this particle just reached a final state" — the
          engines retire it on the spot (see
          :attr:`reports_termination`).
        * any other return value (including the implicit ``None``) keeps
          the conservative wake of the full pre-activation neighbourhood,
          so existing algorithms are unaffected.
        """

    @abstractmethod
    def is_terminated(self, particle: Particle, system: ParticleSystem) -> bool:
        """Whether ``particle`` has reached a final state."""

    # -- optional hooks -----------------------------------------------------

    def admit(self, particle: Particle, system: ParticleSystem) -> None:
        """Initialise the memory of a particle a shape fault (see
        :mod:`repro.amoebot.faults`) added at a round boundary, before
        anything activates it.  Algorithms that accept shape-fault plans
        override it; the default refuses."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot admit particles added mid-run")

    def on_round_end(self, round_index: int, system: ParticleSystem) -> None:
        """Called by the scheduler after each asynchronous round (optional)."""

    def has_terminated(self, system: ParticleSystem) -> bool:
        """Whether every particle has reached a final state."""
        return all(self.is_terminated(p, system) for p in system.particles())

    def is_quiescent(self, particle: Particle, system: ParticleSystem) -> bool:
        """Whether activating ``particle`` right now would provably change
        nothing — the opt-in contract behind the event-driven engine.

        The :class:`~repro.amoebot.scheduler.EventDrivenScheduler` *parks* a
        particle that reports quiescence instead of activating it, and only
        re-wakes it when its visible neighbourhood changes: when an adjacent
        particle is activated and acts, or when a movement operation
        publishes a dirty-neighborhood event touching it.  An algorithm that
        overrides this method therefore promises, for every particle it
        declares quiescent, that

        1. activating the particle now would perform no movement and no
           observable memory write, and
        2. that remains true until a neighbouring particle acts or the
           occupancy of an adjacent point changes (locality: a parked
           particle's next activation may depend only on its own state and
           its visible neighbourhood).

        The conservative default returns ``False`` for every particle, which
        makes the event-driven engine behave exactly like the legacy sweep —
        unmodified algorithms stay correct and merely forgo the speedup.
        """
        return False

    def wakes_on_movement(self, particle: Particle,
                          system: ParticleSystem) -> bool:
        """Whether an occupancy change adjacent to a *parked* particle can
        end its quiescence (the second opt-in of the event-driven engine).

        The engine consults this only when a movement event touches a
        parked particle and no explicit wake (a neighbour's action) names
        it.  An algorithm may return ``False`` for particles whose
        quiescence provably depends on their own memory and their
        neighbours' memories alone — e.g. Algorithm DLE's undecided
        particles, which stay no-ops until their eligibility flags are
        written, regardless of who moves next to them.  Returning ``False``
        for a particle whose next activation could be enabled by an
        occupancy change alone breaks the engine contract.

        The conservative default returns ``True`` (every movement wakes).
        """
        return True

    def initially_active_ids(self, system: ParticleSystem):
        """Ids of the particles whose *first* activation may act, or None.

        Consulted once by the event-driven engine right after
        :meth:`setup`: an algorithm that can enumerate, from setup-time
        knowledge, every particle that is not quiescent at the start can
        return their ids here and the engine parks the rest immediately
        instead of examining the whole population in round one.  The
        returned set must contain every particle for which
        :meth:`is_quiescent` would return False before any activation.
        The default ``None`` starts everyone awake.
        """
        return None

    # -- checkpoint state protocol ------------------------------------------

    def snapshot_state(self, system: ParticleSystem) -> Dict[str, Any]:
        """Algorithm-private state as a JSON-ready document (optional).

        Everything an algorithm instance keeps *outside* particle
        memories — actionable sets, wait counts, round accumulators,
        private RNGs — must be returned here for the run to be
        checkpointable; particle memories themselves are captured by
        :meth:`ParticleSystem.snapshot_state`.  The default covers
        algorithms whose whole state lives in the particles.
        """
        return {}

    def restore_state(self, state: Dict[str, Any],
                      system: ParticleSystem) -> None:
        """Restore a :meth:`snapshot_state` document (optional).

        Called *instead of* :meth:`setup` when a run resumes: ``system``
        already holds the restored particle memories, and the scheduler
        continues from the checkpointed round.  Derived per-particle
        caches may be rebuilt here; they must reproduce exactly the
        values the uninterrupted run would hold at the same round.
        """
