"""Checkpointable run state: the serialization layer behind ``repro.session``.

Everything a half-finished run needs to continue *bit-identically* on
another process (or another machine) flows through here:

* :func:`encode_rng` / :func:`decode_rng` — the stdlib
  :class:`random.Random` Mersenne-Twister state as a JSON-ready document,
* :func:`write_checkpoint` / :func:`read_checkpoint` — versioned
  ``repro-checkpoint`` files published atomically via
  :mod:`repro.orchestrator.fsutil` (a reader never sees a torn file),
* :class:`CheckpointContext` — one run's checkpoint file: loads a prior
  document when the config matches, composes full documents from the
  scheduler/system/algorithm state protocol, and discards the file once
  the run finishes,
* :func:`run_checkpointed_stage` — the driver helper that restores
  system + algorithm + scheduler state and resumes a scheduler stage.

What is serialized is the *explicit state protocol* only: particle
phases and memories, algorithm-private state (actionable sets, wait
counts), RNG streams (the stdlib generator and the key stream of the
bulk ``random`` order, in one form for its stdlib and numpy backends),
round/activation counters and the event engine's parked/done sets.  Derived caches — the neighbor
index, the cached :class:`~repro.grid.shape.Shape` snapshot, the
occupancy-version caches — are deliberately **not** serialized: restore
rebuilds them, and the fuzz tests in ``tests/test_checkpoint.py`` prove
restore ≡ continue on traces, round counts and ledger records.

This module imports only :mod:`repro.orchestrator.fsutil` and
:mod:`repro.telemetry`, so algorithm and driver modules may depend on it
without import cycles.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from .telemetry import counter, get_event_log

# fsutil is imported lazily inside the I/O helpers: importing the
# ``repro.orchestrator`` package at module scope would cycle back through
# pool -> experiments -> core -> this module.

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "CheckpointContext",
    "CheckpointError",
    "checkpoint_name",
    "decode_rng",
    "encode_rng",
    "read_checkpoint",
    "run_checkpointed_stage",
    "write_checkpoint",
]

#: ``kind`` field of every checkpoint document.
CHECKPOINT_KIND = "repro-checkpoint"

#: Bump when the document layout changes incompatibly; readers refuse
#: newer versions instead of mis-restoring them.
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file exists but cannot drive the requested run."""


# ---------------------------------------------------------------------------
# RNG state
# ---------------------------------------------------------------------------

def encode_rng(rng: random.Random) -> Dict[str, Any]:
    """The stdlib generator's full state as a JSON-ready document.

    ``getstate()`` is ``(version, internal, gauss_next)`` where
    ``internal`` is 625 ints (624 Mersenne-Twister key words + the
    stream position); everything is JSON-representable as-is.
    """
    version, internal, gauss_next = rng.getstate()
    return {"version": version, "state": list(internal),
            "gauss_next": gauss_next}


def decode_rng(data: Dict[str, Any],
               rng: Optional[random.Random] = None) -> random.Random:
    """Rebuild (or re-seed ``rng`` in place to) an encoded stdlib state."""
    if rng is None:
        rng = random.Random()
    try:
        rng.setstate((data["version"], tuple(data["state"]),
                      data["gauss_next"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid serialized RNG state: {exc}") from exc
    return rng


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

def checkpoint_name(config: Dict[str, Any]) -> str:
    """Deterministic checkpoint filename for a run configuration.

    Keyed by the *config only* (not the code-version cache digest): a
    resuming worker on a different checkout must still find the file.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"checkpoint-{digest[:32]}.json"


def write_checkpoint(path: Union[str, Path],
                     document: Dict[str, Any]) -> Path:
    """Atomically publish ``document`` as a versioned checkpoint file."""
    path = Path(path)
    payload = dict(document)
    payload["kind"] = CHECKPOINT_KIND
    payload["version"] = CHECKPOINT_VERSION
    from .orchestrator.fsutil import write_json_atomic

    rounds = (payload.get("scheduler") or {}).get("rounds")
    with get_event_log().span("checkpoint.save", path=str(path),
                              stage=payload.get("stage"), rounds=rounds):
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json_atomic(path, payload)
    counter("checkpoint.saves").inc()
    return path


def read_checkpoint(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Load a checkpoint document, or ``None`` when no usable file exists.

    Missing files and unreadable/foreign JSON return ``None`` (the run
    simply starts fresh); a *future-versioned* checkpoint raises — it
    was written deliberately and silently ignoring it would discard
    someone's work.
    """
    from .orchestrator.fsutil import read_json

    path = Path(path)
    with get_event_log().span("checkpoint.load", path=str(path)):
        document = read_json(path)
    if document is None or document.get("kind") != CHECKPOINT_KIND:
        return None
    version = document.get("version")
    if not isinstance(version, int) or version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}; this build "
            f"reads versions <= {CHECKPOINT_VERSION}")
    counter("checkpoint.loads").inc()
    return document


# ---------------------------------------------------------------------------
# One run's checkpoint lifecycle
# ---------------------------------------------------------------------------

class CheckpointContext:
    """The checkpoint file of one run, across its pipeline stages.

    Drivers thread one context through their stages: completed stages
    record a summary (``complete_stage``), the active scheduler stage
    saves full state every ``every`` rounds through :meth:`sink`, and a
    fresh process pointed at the same file resumes from whatever stage
    the document captured.  ``on_checkpoint(rounds, path)`` fires after
    every save — tests use it to simulate preemption.
    """

    def __init__(self, path: Union[str, Path], every: Optional[int],
                 config: Dict[str, Any],
                 on_checkpoint: Optional[Callable[[int, Path], None]] = None,
                 ) -> None:
        self.path = Path(path)
        self.every = int(every) if every else None
        self.config = dict(config)
        self.on_checkpoint = on_checkpoint
        #: Round the active stage resumed from (None = started fresh).
        self.resumed_round: Optional[int] = None
        self.document = self._load()
        self._completed: Dict[str, Dict[str, Any]] = dict(
            (self.document or {}).get("completed", {}))

    def _load(self) -> Optional[Dict[str, Any]]:
        document = read_checkpoint(self.path)
        if document is None:
            return None
        if document.get("config") != self.config:
            # Same path, different run: never restore foreign state.
            return None
        return document

    @property
    def resuming(self) -> bool:
        """True when a prior document for this exact config was loaded."""
        return self.document is not None

    def stage_document(self, stage: str) -> Optional[Dict[str, Any]]:
        """The loaded document iff it captured ``stage`` mid-flight."""
        if self.document is not None and self.document.get("stage") == stage:
            return self.document
        return None

    def completed_stage(self, stage: str) -> Optional[Dict[str, Any]]:
        """The recorded summary of an already-finished pipeline stage."""
        return self._completed.get(stage)

    def complete_stage(self, stage: str, summary: Dict[str, Any]) -> None:
        """Record that ``stage`` finished; later saves carry the summary."""
        self._completed[stage] = dict(summary)

    def sink(self, stage: str, algorithm: Any,
             system: Any) -> Callable[[Dict[str, Any]], None]:
        """A ``checkpoint_sink`` for :meth:`Scheduler.run`: composes the
        full document around the scheduler's own state dict and saves."""

        def save(scheduler_state: Dict[str, Any]) -> None:
            document = {
                "config": self.config,
                "every": self.every,
                "stage": stage,
                "completed": dict(self._completed),
                "scheduler": scheduler_state,
                "system": system.snapshot_state(),
                "algorithm": {
                    "name": getattr(algorithm, "name",
                                    type(algorithm).__name__),
                    "state": algorithm.snapshot_state(system),
                },
            }
            write_checkpoint(self.path, document)
            if self.on_checkpoint is not None:
                self.on_checkpoint(scheduler_state.get("rounds", 0),
                                   self.path)

        return save

    def discard(self) -> None:
        """Delete the file: the run finished, nothing left to resume."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        counter("checkpoint.discards").inc()


def run_checkpointed_stage(checkpoint: Optional[CheckpointContext],
                           stage: str, algorithm: Any, system: Any,
                           scheduler: Any, max_rounds: int,
                           round_hook: Optional[Callable[..., Any]] = None,
                           ) -> Any:
    """Run one scheduler stage under an optional checkpoint context.

    With no context this is exactly ``scheduler.run(...)``.  With one,
    the stage saves state every ``checkpoint.every`` rounds, and — when
    the loaded document captured this stage — system, algorithm and
    scheduler state are restored first so the run *continues* instead of
    restarting.
    """
    if checkpoint is None:
        return scheduler.run(algorithm, system, max_rounds=max_rounds,
                             round_hook=round_hook)
    resume_state: Optional[Dict[str, Any]] = None
    document = checkpoint.stage_document(stage)
    if document is not None:
        try:
            system.restore_state(document["system"])
            algorithm.restore_state(document["algorithm"]["state"], system)
            resume_state = document["scheduler"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"checkpoint {checkpoint.path} is missing state for "
                f"stage {stage!r}: {exc}") from exc
        checkpoint.resumed_round = resume_state.get("rounds")
    return scheduler.run(algorithm, system, max_rounds=max_rounds,
                         round_hook=round_hook,
                         checkpoint_every=checkpoint.every,
                         checkpoint_sink=checkpoint.sink(stage, algorithm,
                                                         system),
                         resume_state=resume_state)
