"""Amoebot-model substrate: particles, system state, schedulers."""

from .adversary import (
    ADVERSARY_FACTORIES,
    alternating_order,
    inside_out_order,
    outside_in_order,
    sticky_order,
)
from .algorithm import (
    STATUS_FOLLOWER,
    STATUS_KEY,
    STATUS_LEADER,
    STATUS_UNDECIDED,
    AmoebotAlgorithm,
)
from .faults import FaultInjector, FaultSpec
from .particle import Particle
from .scheduler import (
    ENGINES,
    EventDrivenScheduler,
    Scheduler,
    SchedulerResult,
    SequentialScheduler,
    make_scheduler,
    run_algorithm,
)
from .system import IllegalMoveError, ParticleSystem
from .trace import Trace, observe_round

__all__ = [
    "ADVERSARY_FACTORIES",
    "AmoebotAlgorithm",
    "alternating_order",
    "inside_out_order",
    "outside_in_order",
    "sticky_order",
    "ENGINES",
    "EventDrivenScheduler",
    "FaultInjector",
    "FaultSpec",
    "IllegalMoveError",
    "Particle",
    "ParticleSystem",
    "STATUS_FOLLOWER",
    "STATUS_KEY",
    "STATUS_LEADER",
    "STATUS_UNDECIDED",
    "Scheduler",
    "SchedulerResult",
    "SequentialScheduler",
    "Trace",
    "make_scheduler",
    "observe_round",
    "run_algorithm",
]
