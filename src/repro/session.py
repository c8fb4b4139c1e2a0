"""One checkpointable run behind one object: the ``Session`` API.

A :class:`Session` executes exactly one :class:`~repro.orchestrator.spec.
RunConfig` and owns the run's checkpoint lifecycle: with a checkpoint
directory it saves resumable state every ``checkpoint_every`` rounds
(through :mod:`repro.state`), picks an existing checkpoint for the same
config back up instead of restarting, and deletes the file once the run
finishes.  Every execution path of the orchestrator — the inline and
process transports, the filesystem queue workers and the TCP workers —
funnels through ``Session``, so a SIGKILLed worker's half-done task is
*resumed* from its last checkpoint by the next lease holder rather than
recomputed from round zero.

Three entry points::

    session = Session.run(config, checkpoint_every=500,
                          checkpoint_dir="ckpts/")   # run (or resume) one config
    session = Session.resume("ckpts/checkpoint-<digest>.json")  # explicit file
    record = session.record                           # the ExperimentRecord

``Session.run`` accepts a :class:`RunConfig` or its ``to_dict`` form.  A
completed session reports where it started: ``resumed_round`` is the round
the scheduler stage continued from (None when the run started fresh) and
``resumed_from`` the checkpoint file it loaded.

Checkpointing is an *execution* option, not part of the run's identity:
``checkpoint_every`` / ``checkpoint_dir`` never enter the result-cache
digest, and the checkpoint filename is keyed by the config alone so any
worker (on any code version) finds the file.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple, Union

from .state import (
    CheckpointContext,
    CheckpointError,
    checkpoint_name,
    read_checkpoint,
)

if TYPE_CHECKING:
    from .analysis.experiments import ExperimentRecord
    from .grid.metrics import ShapeMetrics
    from .grid.shape import Shape

__all__ = ["Session"]


@lru_cache(maxsize=128)
def _shape_and_metrics(family: str, size: int,
                       seed: int) -> Tuple["Shape", "ShapeMetrics"]:
    """Shape construction and metrics are pure and shared by every algorithm
    of a sweep on the same (family, size, seed) — build them once per
    process, like the old serial table1 loop did."""
    from .grid.generators import make_shape
    from .grid.metrics import compute_metrics

    shape = make_shape(family, size, seed=seed)
    return shape, compute_metrics(shape)


class Session:
    """One run of one config, checkpointable and resumable.

    Build one with :meth:`run` (the common path) or :meth:`resume`; the
    returned object has already executed and carries the outcome:

    ``record``
        The :class:`~repro.analysis.experiments.ExperimentRecord`.
    ``resumed_round``
        Round the scheduler stage continued from, or None (fresh run).
    ``resumed_from``
        Path of the checkpoint the run continued, or None.
    ``checkpoint_path``
        Where this run saves (and on success deletes) its checkpoint,
        or None when checkpointing is off.
    """

    def __init__(self, config: Any, *,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Union[str, Path, None] = None,
                 checkpoint_path: Union[str, Path, None] = None,
                 on_checkpoint: Optional[Callable[[int, Path], None]] = None,
                 ) -> None:
        from .orchestrator.spec import RunConfig

        if isinstance(config, dict):
            config = RunConfig.from_dict(config)
        config.validate()
        self.config = config
        self.checkpoint_every = int(checkpoint_every) if checkpoint_every else None
        self.on_checkpoint = on_checkpoint
        if checkpoint_path is not None:
            self.checkpoint_path: Optional[Path] = Path(checkpoint_path)
        elif checkpoint_dir is not None:
            self.checkpoint_path = (Path(checkpoint_dir)
                                    / checkpoint_name(config.to_dict()))
        else:
            self.checkpoint_path = None
        self.record: Optional["ExperimentRecord"] = None
        self.resumed_round: Optional[int] = None
        self.resumed_from: Optional[str] = None

    # -- entry points -------------------------------------------------------

    @classmethod
    def run(cls, config: Any,
            checkpoint_every: Optional[int] = None,
            checkpoint_dir: Union[str, Path, None] = None,
            on_checkpoint: Optional[Callable[[int, Path], None]] = None,
            ) -> "Session":
        """Execute ``config`` (resuming its checkpoint if one exists)."""
        session = cls(config, checkpoint_every=checkpoint_every,
                      checkpoint_dir=checkpoint_dir,
                      on_checkpoint=on_checkpoint)
        session.execute()
        return session

    @classmethod
    def resume(cls, path: Union[str, Path],
               checkpoint_every: Optional[int] = None,
               on_checkpoint: Optional[Callable[[int, Path], None]] = None,
               ) -> "Session":
        """Resume the run captured in an explicit checkpoint file.

        The config is read out of the document; ``checkpoint_every``
        defaults to the cadence the interrupted run used, so the resumed
        run keeps checkpointing the same way.
        """
        document = read_checkpoint(path)
        if document is None:
            raise CheckpointError(f"no checkpoint to resume at {path}")
        config = document.get("config")
        if not isinstance(config, dict):
            raise CheckpointError(f"checkpoint {path} carries no run config")
        session = cls(config,
                      checkpoint_every=(checkpoint_every
                                        or document.get("every")),
                      checkpoint_path=path, on_checkpoint=on_checkpoint)
        session.execute()
        return session

    # -- execution ----------------------------------------------------------

    def execute(self) -> "ExperimentRecord":
        """Run (or continue) the config; returns the ExperimentRecord."""
        from .analysis.experiments import run_experiment

        config = self.config
        context: Optional[CheckpointContext] = None
        if self.checkpoint_path is not None:
            context = CheckpointContext(self.checkpoint_path,
                                        self.checkpoint_every,
                                        config.to_dict(),
                                        on_checkpoint=self.on_checkpoint)
            if context.resuming:
                self.resumed_from = str(self.checkpoint_path)
        shape, metrics = _shape_and_metrics(config.family, config.size,
                                            config.seed)
        record = run_experiment(config.algorithm, shape,
                                family=config.family, size=config.size,
                                seed=config.seed, metrics=metrics,
                                order=config.scheduler, engine=config.engine,
                                checkpoint=context, faults=config.faults)
        if context is not None:
            self.resumed_round = context.resumed_round
            context.discard()
        self.record = record
        return record
