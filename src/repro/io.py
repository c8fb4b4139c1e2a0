"""JSON serialisation of shapes, configurations and experiment records.

A reproduction is only useful if its inputs and outputs can be stored and
re-loaded: this module provides a small, dependency-free JSON round-trip for

* :class:`~repro.grid.shape.Shape` — the initial workloads,
* :class:`~repro.amoebot.system.ParticleSystem` — full configurations
  (positions, expansion state, orientations and particle memories),
* :class:`~repro.analysis.experiments.ExperimentRecord` lists — the raw data
  behind every table and figure in EXPERIMENTS.md.

Only JSON-representable values may live in particle memories when a system
is serialised (the built-in algorithms use lists, booleans and strings
only).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from .amoebot.system import ParticleSystem
from .analysis.experiments import ExperimentRecord
from .grid.metrics import ShapeMetrics
from .grid.shape import Shape

__all__ = [
    "shape_to_dict",
    "shape_from_dict",
    "save_shape",
    "load_shape",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
    "records_to_dicts",
    "records_from_dicts",
    "save_records",
    "load_records",
]

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------

def shape_to_dict(shape: Shape) -> Dict[str, Any]:
    """A JSON-ready dictionary describing a shape."""
    return {"kind": "shape", "points": [list(p) for p in sorted(shape.points)]}


def shape_from_dict(data: Dict[str, Any]) -> Shape:
    """Rebuild a shape from :func:`shape_to_dict` output."""
    if data.get("kind") != "shape":
        raise ValueError("not a serialised shape")
    return Shape(tuple(point) for point in data["points"])


def save_shape(shape: Shape, path: PathLike) -> None:
    """Write a shape to a JSON file."""
    Path(path).write_text(json.dumps(shape_to_dict(shape), indent=2))


def load_shape(path: PathLike) -> Shape:
    """Read a shape from a JSON file."""
    return shape_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Particle systems
# ---------------------------------------------------------------------------

def system_to_dict(system: ParticleSystem) -> Dict[str, Any]:
    """A JSON-ready dictionary describing a full configuration."""
    particles: List[Dict[str, Any]] = []
    for particle in system.particles():
        particles.append({
            "head": list(particle.head),
            "tail": list(particle.tail),
            "orientation": particle.orientation,
            "memory": particle.memory,
        })
    return {"kind": "particle-system", "particles": particles}


def system_from_dict(data: Dict[str, Any]) -> ParticleSystem:
    """Rebuild a particle system from :func:`system_to_dict` output."""
    if data.get("kind") != "particle-system":
        raise ValueError("not a serialised particle system")
    system = ParticleSystem()
    expansions: List[tuple] = []
    for entry in data["particles"]:
        head = tuple(entry["head"])
        tail = tuple(entry["tail"])
        particle = system.add_particle(tail, orientation=int(entry["orientation"]))
        particle.memory = dict(entry.get("memory", {}))
        if head != tail:
            expansions.append((particle, head))
    # Expand after all tails are placed so occupancy checks see the full set.
    for particle, head in expansions:
        system.expand(particle, head)
    return system


def save_system(system: ParticleSystem, path: PathLike) -> None:
    """Write a configuration to a JSON file."""
    Path(path).write_text(json.dumps(system_to_dict(system), indent=2))


def load_system(path: PathLike) -> ParticleSystem:
    """Read a configuration from a JSON file."""
    return system_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Experiment records
# ---------------------------------------------------------------------------

def records_to_dicts(records: Sequence[ExperimentRecord]) -> List[Dict[str, Any]]:
    """JSON-ready dictionaries for a list of experiment records."""
    result = []
    for record in records:
        result.append({
            "algorithm": record.algorithm,
            "family": record.family,
            "size": record.size,
            "seed": record.seed,
            "rounds": record.rounds,
            "succeeded": record.succeeded,
            "metrics": record.metrics.as_dict(),
            "details": record.details,
        })
    return result


def records_from_dicts(data: Iterable[Dict[str, Any]]) -> List[ExperimentRecord]:
    """Rebuild experiment records from :func:`records_to_dicts` output.

    The algorithm and family names and the ``details`` keys are interned:
    parsed JSON gives every record its own copy of each string, which is
    about a third of the memory a list of small records holds.
    """
    records = []
    for entry in data:
        metrics = entry["metrics"]
        records.append(ExperimentRecord(
            algorithm=sys.intern(entry["algorithm"]),
            family=sys.intern(entry["family"]),
            size=int(entry["size"]),
            seed=int(entry["seed"]),
            rounds=int(entry["rounds"]),
            succeeded=bool(entry["succeeded"]),
            metrics=ShapeMetrics(
                n=metrics["n"],
                n_area=metrics["n_A"],
                diameter=metrics["D"],
                area_diameter=metrics["D_A"],
                grid_diam=metrics["D_G"],
                l_out=metrics["L_out"],
                l_max=metrics["L_max"],
                num_holes=metrics["holes"],
            ),
            details={sys.intern(key): value
                     for key, value in entry.get("details", {}).items()},
        ))
    return records


def save_records(records: Sequence[ExperimentRecord], path: PathLike) -> None:
    """Write experiment records to a JSON file."""
    Path(path).write_text(json.dumps(records_to_dicts(records), indent=2))


def load_records(path: PathLike) -> List[ExperimentRecord]:
    """Read experiment records from a JSON file."""
    return records_from_dicts(json.loads(Path(path).read_text()))
