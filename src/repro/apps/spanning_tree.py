"""Leader-rooted spanning-tree construction (a downstream application).

The paper motivates leader election as "an important module in algorithms
for various other tasks" — coating, shape formation and bridging all start
by electing a leader and then coordinating around it.  This module provides
the simplest such downstream task as a faithful per-activation amoebot
algorithm: once a unique leader exists (and the system is connected again,
e.g. after Algorithm Collect), every particle chooses a parent port towards
the leader, producing a spanning tree of the particle graph in ``O(D)``
rounds.

The tree is the standard building block for the follow-up algorithms in the
amoebot literature (convergecast, counting, shape formation), so the example
``examples/election_to_spanning_tree.py`` demonstrates the intended
composition: OBD → DLE → Collect → spanning tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..amoebot.algorithm import (
    STATUS_KEY,
    STATUS_LEADER,
    AmoebotAlgorithm,
)
from ..amoebot.particle import Particle
from ..amoebot.system import ParticleSystem

__all__ = ["SpanningTreeAlgorithm", "SpanningTreeError", "verify_spanning_tree"]

IN_TREE_KEY = "tree_joined"
PARENT_PORT_KEY = "tree_parent_port"
TREE_DONE_KEY = "tree_done"


class SpanningTreeError(RuntimeError):
    """Raised when the constructed structure is not a spanning tree."""


class SpanningTreeAlgorithm(AmoebotAlgorithm):
    """Grow a spanning tree rooted at the (already elected) leader.

    Every particle stores whether it has joined the tree and, except for the
    leader, the port of its head that leads to its parent's head.  A
    particle joins as soon as it sees a joined neighbour; the adversarial
    scheduler can therefore delay but not prevent progress, and the tree is
    complete after at most ``eccentricity(leader) + 1`` rounds.
    """

    name = "spanning-tree"

    def setup(self, system: ParticleSystem) -> None:
        if not system.is_connected():
            raise ValueError(
                "spanning-tree construction requires a connected system "
                "(run Algorithm Collect first)"
            )
        if not system.all_contracted():
            raise ValueError("spanning-tree construction expects contracted particles")
        leaders = [p for p in system.particles()
                   if p.get(STATUS_KEY) == STATUS_LEADER]
        if len(leaders) != 1:
            raise ValueError(
                f"spanning-tree construction requires exactly one leader, "
                f"found {len(leaders)}"
            )
        for particle in system.particles():
            particle[IN_TREE_KEY] = particle.get(STATUS_KEY) == STATUS_LEADER
            particle[PARENT_PORT_KEY] = None
            particle[TREE_DONE_KEY] = False

    def is_terminated(self, particle: Particle, system: ParticleSystem) -> bool:
        return bool(particle.get(TREE_DONE_KEY, False))

    def activate(self, particle: Particle, system: ParticleSystem) -> None:
        neighbors = system.neighbors_of(particle)
        if not particle[IN_TREE_KEY]:
            # Join through the first joined neighbour (deterministic order).
            for q in neighbors:
                if q.get(IN_TREE_KEY):
                    particle[IN_TREE_KEY] = True
                    particle[PARENT_PORT_KEY] = particle.port_between(
                        particle.head, q.head)
                    break
        if particle[IN_TREE_KEY] and all(q.get(IN_TREE_KEY) for q in neighbors):
            particle[TREE_DONE_KEY] = True

    # -- inspection ---------------------------------------------------------

    @staticmethod
    def parent_of(particle: Particle, system: ParticleSystem) -> Optional[Particle]:
        """The parent particle of ``particle`` in the constructed tree."""
        port = particle.get(PARENT_PORT_KEY)
        if port is None:
            return None
        return system.particle_at(particle.head_neighbor(port))


def verify_spanning_tree(system: ParticleSystem) -> Dict[int, Optional[int]]:
    """Check that the constructed parent pointers form a spanning tree rooted
    at the leader and return the parent map (particle id -> parent id).

    Raises :class:`SpanningTreeError` when a particle did not join, a parent
    pointer is dangling, or following parents does not reach the leader.
    """
    parents: Dict[int, Optional[int]] = {}
    leader_id: Optional[int] = None
    for particle in system.particles():
        if not particle.get(IN_TREE_KEY):
            raise SpanningTreeError(f"particle at {particle.head} never joined")
        port = particle.get(PARENT_PORT_KEY)
        if particle.get(STATUS_KEY) == STATUS_LEADER:
            leader_id = particle.particle_id
            parents[particle.particle_id] = None
            continue
        if port is None:
            raise SpanningTreeError(
                f"non-leader particle at {particle.head} has no parent"
            )
        parent = system.particle_at(particle.head_neighbor(port))
        if parent is None:
            raise SpanningTreeError(
                f"parent port of particle at {particle.head} points at an "
                "empty point"
            )
        parents[particle.particle_id] = parent.particle_id
    if leader_id is None:
        raise SpanningTreeError("no leader found")
    # Every particle must reach the leader without cycles.
    for start in parents:
        seen = set()
        current = start
        while current != leader_id:
            if current in seen:
                raise SpanningTreeError("cycle in parent pointers")
            seen.add(current)
            nxt = parents[current]
            if nxt is None:
                raise SpanningTreeError("non-leader root in parent pointers")
            current = nxt
    return parents
