"""Parallel execution of sweep configs with caching and resumability.

:func:`run_sweep` is the single entry point the CLI, the benchmark harness,
the examples and the thin :mod:`repro.analysis.experiments` front-ends all
share.  It takes a :class:`~repro.orchestrator.spec.SweepSpec` (or an
explicit config list) and, per config, resolves the result from the cheapest
available source:

1. the run ledger, when ``resume`` is set and a previous sweep already
   finished the config,
2. the content-addressed :class:`~repro.orchestrator.cache.ResultCache`,
3. actual execution through a pluggable
   :mod:`~repro.orchestrator.transport`: in-process for ``jobs=1`` (zero
   overhead, easiest to debug and to monkeypatch in tests), a
   ``multiprocessing`` pool for ``jobs>1``, a filesystem task queue
   served by ``python -m repro worker`` daemons on machines sharing the
   filesystem, or a TCP coordinator (``python -m repro serve``) serving
   ``python -m repro worker --connect`` daemons that share nothing but a
   network.

A run that raises is captured as a failed :class:`RunResult` instead of
killing the sweep; failures are appended to the ledger with a cumulative
attempt count (so resume can retry them — up to ``max_attempts``, after
which the sweep *gives up* on the config and reports it) but never cached.
Results always come back in spec order, no matter which worker finished
first, and the ledger is written in spec order too, so ``jobs=1``,
``jobs=8`` and a queue sweep over many machines produce identical ledgers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..analysis.experiments import ExperimentRecord
from ..telemetry import counter as _metric, get_event_log
from .cache import ResultCache, config_digest, default_code_version
from .spec import RunConfig, SweepSpec
from .store import RunLedger
from .transport import resolve_transport

__all__ = [
    "DEFAULT_JOBS",
    "DEFAULT_MAX_ATTEMPTS",
    "RunResult",
    "SweepResult",
    "run_sweep",
]

#: Shared default for every ``--jobs`` flag.
DEFAULT_JOBS = 1

#: How many times a failing config is attempted (first run + resumes)
#: before ``--resume`` gives up on it.  ``None`` retries forever.
DEFAULT_MAX_ATTEMPTS = 3

PathOrCache = Union[str, "os.PathLike[str]", "ResultCache", None]
PathOrLedger = Union[str, "os.PathLike[str]", "RunLedger", None]
ProgressFn = Callable[[int, int, "RunResult"], None]

#: How a result was obtained.
SOURCE_EXECUTED = "executed"
SOURCE_CACHED = "cached"
SOURCE_RESUMED = "resumed"
#: A resumed config whose retry budget is exhausted: not re-run, not ok.
SOURCE_GAVE_UP = "gave-up"


@dataclass
class RunResult:
    """Outcome of one config: a record, or a captured failure."""

    config: RunConfig
    record: Optional[ExperimentRecord] = None
    error: Optional[str] = None
    source: str = SOURCE_EXECUTED
    elapsed: float = 0.0
    #: The original exception object, available only for in-process
    #: (``jobs=1``) execution — worker-pool failures cross a process
    #: boundary and survive as the ``error`` traceback string only.
    exception: Optional[BaseException] = None
    #: How many executions this outcome consumed.  1 except for queue
    #: results, where the workers may already have retried the task up to
    #: its per-task budget; the ledger's cumulative attempt count advances
    #: by this much so the resume retry cap counts real executions.
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.record is not None and self.error is None

    @property
    def gave_up(self) -> bool:
        return self.source == SOURCE_GAVE_UP


@dataclass
class SweepResult:
    """Everything a sweep produced, in spec order."""

    results: List[RunResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def records(self) -> List[ExperimentRecord]:
        """Successful records, in spec order (failures omitted)."""
        return [r.record for r in self.results if r.ok]

    @property
    def failures(self) -> List[RunResult]:
        return [r for r in self.results if not r.ok]

    def counts(self) -> Dict[str, int]:
        """How each config's result was obtained, plus the failure count.

        ``"failed"`` counts every unsuccessful config; ``"gave-up"`` is the
        subset that a resumed sweep refused to retry because the attempt
        budget was exhausted.
        """
        counts = {"total": len(self.results), SOURCE_EXECUTED: 0,
                  SOURCE_CACHED: 0, SOURCE_RESUMED: 0, "failed": 0,
                  SOURCE_GAVE_UP: 0}
        for result in self.results:
            if result.ok:
                counts[result.source] += 1
            else:
                counts["failed"] += 1
                if result.gave_up:
                    counts[SOURCE_GAVE_UP] += 1
        return counts

    def raise_failures(self) -> "SweepResult":
        """Re-raise the first captured failure (serial-path semantics).

        In-process failures re-raise the original exception object;
        worker-pool failures raise ``RuntimeError`` carrying the worker's
        traceback text.
        """
        for result in self.results:
            if not result.ok:
                if result.exception is not None:
                    raise result.exception
                raise RuntimeError(
                    f"sweep run failed for {result.config.describe()}:\n"
                    f"{result.error}"
                )
        return self


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _result_from_payload(config: RunConfig,
                         payload: Dict[str, Any]) -> RunResult:
    if "record" in payload:
        # The inline transport hands over the live record; payloads that
        # crossed a process or the network carry its dictionary form only.
        record = payload.get("live_record")
        if record is None:
            from ..io import records_from_dicts

            record = records_from_dicts([payload["record"]])[0]
        return RunResult(config=config, record=record,
                         elapsed=payload.get("elapsed", 0.0))
    return RunResult(config=config, error=payload.get("error", "unknown error"),
                     exception=payload.get("exception"),
                     elapsed=payload.get("elapsed", 0.0),
                     attempts=max(1, int(payload.get("attempt", 1))))


def _record_dict(record: ExperimentRecord) -> Dict[str, Any]:
    from ..io import records_to_dicts

    return records_to_dicts([record])[0]


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------

def run_sweep(spec: Union[SweepSpec, Sequence[RunConfig]],
              jobs: int = DEFAULT_JOBS,
              cache: PathOrCache = None,
              ledger: PathOrLedger = None,
              resume: bool = False,
              progress: Optional[ProgressFn] = None,
              transport: Any = None,
              max_attempts: Optional[int] = DEFAULT_MAX_ATTEMPTS,
              checkpoint_every: Optional[int] = None,
              checkpoint_dir: Optional[str] = None) -> SweepResult:
    """Execute every config of ``spec``, returning results in spec order.

    ``cache`` / ``ledger`` accept paths or pre-built objects.  ``resume``
    requires a ledger and skips configs it already marks ``done``; failed
    and missing configs re-run, except configs that have already failed
    ``max_attempts`` times, which are *given up* (reported as failures with
    source ``"gave-up"``, without re-running).  ``progress`` is called as
    ``progress(finished_so_far, total, result)`` after every config, from
    the coordinating process, in completion order.

    ``transport`` selects where pending configs execute: ``None`` keeps the
    historical behaviour (in-process for ``jobs<=1``, a local
    ``multiprocessing`` pool otherwise), a name from
    :data:`~repro.orchestrator.transport.TRANSPORTS` forces a backend, and
    a :class:`~repro.orchestrator.queue.QueueTransport` or
    :class:`~repro.orchestrator.net.TcpTransport` instance distributes the
    work to ``python -m repro worker`` daemons.  Whatever the transport and
    completion order, ledger lines are flushed in spec order, so
    distributed sweeps and ``jobs=1`` sweeps write identical ledgers.

    ``checkpoint_every`` / ``checkpoint_dir`` make every executed config
    resumable: each run saves its state to ``checkpoint_dir`` every that
    many scheduler rounds (through :class:`repro.session.Session`), so a
    killed worker's half-done run continues from the last checkpoint
    instead of restarting.  These are execution options, not run identity:
    they never enter the cache digest or the ledger.
    """
    configs = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
    for config in configs:
        config.validate()
    if isinstance(cache, (str, os.PathLike)):
        cache = ResultCache(cache)
    if isinstance(ledger, (str, os.PathLike)):
        ledger = RunLedger(ledger)
    if resume and ledger is None:
        raise ValueError("resume=True requires a ledger")
    transport = resolve_transport(transport, jobs=jobs)

    code_version = (cache.code_version if cache is not None
                    else default_code_version())
    #: Each config's digest, by spec position.
    digests = [config_digest(config, code_version) for config in configs]

    started = time.perf_counter()
    total = len(configs)
    events = get_event_log()
    events.emit("sweep.begin", total=total, resume=bool(resume), jobs=jobs)
    slots: List[Optional[RunResult]] = [None] * total
    #: Per-slot (result, write_to_ledger) staging for the in-order flush.
    ledger_slots: List[Optional[bool]] = [None] * total
    #: Executed records' dictionary form, held until their ledger line is
    #: written and dropped then, so the coordinator's memory stays flat.
    record_dicts: List[Optional[Dict[str, Any]]] = [None] * total
    flushed = 0
    done_count = 0
    # The ledger's earlier failures are read only when needed: for the
    # resume retry cap, or when this sweep writes its first failed line.
    prior_failures = ledger.failures() if resume else None
    failed_attempts: Optional[Dict[str, int]] = None

    def flush_ledger() -> None:
        """Append finished slots to the ledger in spec order.

        Results can finish in any order; holding back out-of-order entries
        keeps the ledger byte-comparable across transports, at the cost
        that a crash loses the held-back lines — pair the ledger with a
        result cache (which is written immediately, per completion) to
        make resumes after a coordinator crash cheap.
        """
        nonlocal flushed, failed_attempts
        while flushed < total and ledger_slots[flushed] is not None:
            result = slots[flushed]
            if ledger_slots[flushed] and ledger is not None:
                config, digest = result.config, digests[flushed]
                if result.ok:
                    record_dict = record_dicts[flushed]
                    record_dicts[flushed] = None
                    if record_dict is None:
                        record_dict = _record_dict(result.record)
                    ledger.append(digest, config, "done",
                                  record_dict=record_dict,
                                  elapsed=result.elapsed)
                else:
                    if failed_attempts is None:
                        failures = (prior_failures if prior_failures is not None
                                    else ledger.failures())
                        failed_attempts = {key: entry["attempts"]
                                           for key, entry in failures.items()}
                    attempts = failed_attempts.get(digest, 0) + result.attempts
                    failed_attempts[digest] = attempts
                    ledger.append(digest, config, "failed",
                                  error=result.error, elapsed=result.elapsed,
                                  attempts=attempts)
            flushed += 1

    def finish(index: int, result: RunResult,
               record_dict: Optional[Dict[str, Any]] = None,
               write_ledger: bool = True) -> None:
        nonlocal done_count
        slots[index] = result
        done_count += 1
        if result.ok and cache is not None and result.source == SOURCE_EXECUTED:
            cache.put(result.config, record_dict, digests[index])
        ledger_slots[index] = write_ledger and ledger is not None
        if ledger_slots[index]:
            record_dicts[index] = record_dict
        flush_ledger()
        if result.ok:
            _metric("sweep." + result.source.replace("-", "_")).inc()
        else:
            _metric("sweep.failed").inc()
            if result.gave_up:
                _metric("sweep.gave_up").inc()
                _metric("ledger.gave_ups").inc()
        if result.source == SOURCE_RESUMED:
            _metric("ledger.resume_skips").inc()
        if events.enabled:
            events.emit("sweep.config", id=digests[index][:12],
                        config=result.config.describe(), source=result.source,
                        ok=result.ok, elapsed=round(result.elapsed, 6),
                        attempts=result.attempts)
        if progress is not None:
            progress(done_count, total, result)

    # Pass 1: resolve from the ledger (resume) and the result cache.
    resumed = ledger.completed() if resume else {}
    pending: List[int] = []
    for index, config in enumerate(configs):
        entry = resumed.get(digests[index])
        if entry is not None and "record" in entry:
            result = _result_from_payload(config, {"record": entry["record"]})
            result.source = SOURCE_RESUMED
            # Already in the ledger — appending again would bloat it.
            finish(index, result, write_ledger=False)
            continue
        if prior_failures is not None and max_attempts is not None:
            failed = prior_failures.get(digests[index])
            if failed is not None and failed["attempts"] >= max_attempts:
                result = RunResult(
                    config=config,
                    error=(f"gave up after {failed['attempts']} failed "
                           f"attempts (max_attempts={max_attempts}); "
                           f"last error:\n{failed.get('error', '(unknown)')}"),
                    source=SOURCE_GAVE_UP)
                # Not re-appended: the attempt count only grows on real runs.
                finish(index, result, write_ledger=False)
                continue
        if cache is not None:
            record = cache.get(config)
            if record is not None:
                finish(index, RunResult(config=config, record=record,
                                        source=SOURCE_CACHED))
                continue
        pending.append(index)

    # Pass 2: execute what remains through the transport.
    if pending:
        items = [(index, configs[index], digests[index]) for index in pending]
        options: Optional[Dict[str, Any]] = None
        if checkpoint_every is not None or checkpoint_dir is not None:
            options = {"checkpoint_every": checkpoint_every,
                       "checkpoint_dir": (str(checkpoint_dir)
                                          if checkpoint_dir else None)}
        for index, payload in transport.run(items, options):
            finish(index, _result_from_payload(configs[index], payload),
                   payload.get("record"))

    sweep_result = SweepResult(results=list(slots),
                               elapsed=time.perf_counter() - started)
    events.emit("sweep.end", elapsed=round(sweep_result.elapsed, 6),
                **sweep_result.counts())
    return sweep_result
